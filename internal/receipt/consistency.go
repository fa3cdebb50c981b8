package receipt

import "fmt"

// This file implements the receipt-consistency rules of paper §4. A
// verifier applies them to receipts produced by the two HOPs at
// opposite ends of one inter-domain link (e.g. HOPs 5 and 6 in the
// paper's Figure 1): a correct link introduces neither loss nor
// unpredictable delay, so the upstream HOP's claims about delivered
// traffic must match the downstream HOP's claims about received
// traffic. A mismatch means either a faulty link or a lie, and the
// liar is exposed to the neighbor it implicated.

// InconsistencyKind classifies a consistency violation.
type InconsistencyKind int

// The kinds of violations a receipt pair can exhibit.
const (
	// MaxDiffMismatch: the two HOPs report different MaxDiff values
	// for their shared link (rule 1 for sample receipts).
	MaxDiffMismatch InconsistencyKind = iota
	// DelayBound: a sampled packet's receive timestamp precedes its
	// delivery timestamp, or exceeds it by more than MaxDiff (rule 2,
	// two-sided: a clock set back would otherwise make every marker's
	// crossing infeasible and excuse every missing record).
	DelayBound
	// CountMismatch: the two HOPs report different packet counts for
	// the same aggregate.
	CountMismatch
	// MissingDownstream: the upstream HOP claims a sampled packet was
	// delivered but the downstream HOP has no record of it.
	MissingDownstream
	// MissingUpstream: the downstream HOP reports a sampled packet the
	// upstream HOP never claimed to deliver.
	MissingUpstream
)

// String names the violation kind.
func (k InconsistencyKind) String() string {
	switch k {
	case MaxDiffMismatch:
		return "maxdiff-mismatch"
	case DelayBound:
		return "delay-bound"
	case CountMismatch:
		return "count-mismatch"
	case MissingDownstream:
		return "missing-downstream"
	case MissingUpstream:
		return "missing-upstream"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Inconsistency describes one violation found in a receipt pair.
type Inconsistency struct {
	Kind InconsistencyKind
	// PktID identifies the offending packet for per-packet kinds.
	PktID uint64
	// Detail is a human-readable elaboration.
	Detail string
}

// String renders the inconsistency.
func (v Inconsistency) String() string {
	if v.PktID != 0 {
		return fmt.Sprintf("%s pkt=%#x: %s", v.Kind, v.PktID, v.Detail)
	}
	return fmt.Sprintf("%s: %s", v.Kind, v.Detail)
}

// CheckAggPair applies the aggregate consistency rule of §4: the two
// HOPs at the ends of a correct inter-domain link must report equal
// packet counts for the same aggregate. The receipts are assumed to
// describe the same aggregate (the verifier aligns aggregates first,
// see internal/aggregation.Joiner).
func CheckAggPair(up, down AggReceipt) []Inconsistency {
	var out []Inconsistency
	if up.PktCnt != down.PktCnt {
		out = append(out, Inconsistency{
			Kind: CountMismatch,
			Detail: fmt.Sprintf("aggregate [%#x..%#x]: upstream delivered %d, downstream received %d",
				up.Agg.First, up.Agg.Last, up.PktCnt, down.PktCnt),
		})
	}
	return out
}
