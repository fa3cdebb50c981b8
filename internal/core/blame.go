package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// This file turns raw verification outcomes into blame attributions:
// each finding names the *narrowest* implicated link/domain set the
// evidence supports and classifies the evidence itself. The paper's
// §3.1 argument is exactly this shape — a receipt inconsistency at an
// inter-domain link implicates the two adjacent domains and no one
// else ("the liar is exposed to the neighbor it implicated"), while
// dissemination-layer misbehavior (a bad signature, a replayed epoch,
// two contradictory signed bundles) is self-incriminating and narrows
// the blame to the single origin HOP.

// EvidenceClass classifies the proof behind one blame finding.
type EvidenceClass int

// The evidence classes a verifier can hold against a domain.
const (
	// EvMissingReceipt: sample records expected under the advertised
	// thresholds are absent in one direction (fabrication,
	// suppression, under-reporting, or genuine link loss).
	EvMissingReceipt EvidenceClass = iota
	// EvInconsistentAggregate: the two ends of a link report different
	// packet counts for the same aggregate.
	EvInconsistentAggregate
	// EvDelayBound: a matched sample's link delta lies outside [0,
	// MaxDiff] (delay under-reporting, or a broken clock).
	EvDelayBound
	// EvMaxDiffMismatch: the two ends advertise different MaxDiff
	// bounds for their shared link.
	EvMaxDiffMismatch
	// EvMarkerBias: the predictable marker samples transit
	// systematically faster than the unpredictable σ-keyed samples —
	// impossible for honest treatment of a uniform hash subsample.
	EvMarkerBias
	// EvSignature: a bundle failed authentication against the origin's
	// registered key.
	EvSignature
	// EvEpochReplay: a validly signed bundle arrived for a (HOP,
	// epoch) that was already sealed — a stale replay or duplicate.
	EvEpochReplay
	// EvWithheldBundle: an expected HOP never published an epoch's
	// bundle, leaving the epoch permanently unverifiable.
	EvWithheldBundle
	// EvBundleGap: a publisher pruned bundles a lagging cursor had not
	// consumed — receipts are permanently missing.
	EvBundleGap
	// EvEquivocation: the same origin served two validly signed,
	// mismatched bundles for the same sequence number to different
	// verifiers — non-repudiable proof of lying.
	EvEquivocation
)

// String names the evidence class.
func (e EvidenceClass) String() string {
	switch e {
	case EvMissingReceipt:
		return "missing-receipt"
	case EvInconsistentAggregate:
		return "inconsistent-aggregate"
	case EvDelayBound:
		return "delay-bound"
	case EvMaxDiffMismatch:
		return "maxdiff-mismatch"
	case EvMarkerBias:
		return "marker-bias"
	case EvSignature:
		return "signature"
	case EvEpochReplay:
		return "epoch-replay"
	case EvWithheldBundle:
		return "withheld-bundle"
	case EvBundleGap:
		return "bundle-gap"
	case EvEquivocation:
		return "equivocation"
	default:
		return fmt.Sprintf("evidence(%d)", int(e))
	}
}

// Blame is one attribution: the narrowest implicated HOP/domain set
// for one class of evidence in one epoch.
type Blame struct {
	// Epoch the implicated claims were sealed in (0 in batch mode).
	Epoch EpochID
	// Evidence classifies the proof.
	Evidence EvidenceClass
	// LinkID is the implicated link's ordinal along the path
	// (Layout.Links order), or -1 when the evidence implicates HOPs
	// directly rather than through a link check.
	LinkID int
	// HOPs is the narrowest implicated HOP set: the two ends of a link
	// for receipt inconsistencies, the origin for dissemination-layer
	// evidence — every HOP of a payload's key when the key signed the
	// evidence for all of them.
	HOPs []receipt.HOPID
	// Domains names the domains owning those HOPs.
	Domains []string
	// Count is the number of supporting violations or events.
	Count int
	// Detail elaborates the first supporting finding.
	Detail string
}

// String renders the blame finding.
func (b Blame) String() string {
	who := make([]string, len(b.HOPs))
	for i, h := range b.HOPs {
		who[i] = h.String()
	}
	return fmt.Sprintf("epoch %d: %s ×%d implicates {%s} (%s)",
		b.Epoch, b.Evidence, b.Count, strings.Join(who, ","), strings.Join(b.Domains, ","))
}

// LinkDomains returns the names of the two domains adjacent to the
// given link ordinal (Layout.Links order), from the segment's
// UpDomain/DownDomain fields. ok is false for an out-of-range ordinal.
func (l Layout) LinkDomains(linkID int) (up, down string, ok bool) {
	links := l.Links()
	if linkID < 0 || linkID >= len(links) {
		return "", "", false
	}
	return links[linkID].UpDomain, links[linkID].DownDomain, true
}

// evidenceOf maps a receipt inconsistency kind onto its evidence
// class.
func evidenceOf(k receipt.InconsistencyKind) EvidenceClass {
	switch k {
	case receipt.MaxDiffMismatch:
		return EvMaxDiffMismatch
	case receipt.DelayBound:
		return EvDelayBound
	case receipt.CountMismatch:
		return EvInconsistentAggregate
	default: // MissingDownstream, MissingUpstream
		return EvMissingReceipt
	}
}

// AttributeBlame condenses link verdicts into blame findings: one
// finding per (link, evidence class) with a violation, each naming the
// two HOPs at the link's ends and their owning domains — the
// narrowest set a single-link inconsistency can implicate (§3.1).
// Findings are ordered by (LinkID, Evidence), so attribution is as
// deterministic as the verdicts it summarizes.
func AttributeBlame(layout Layout, epoch EpochID, verdicts []LinkVerdict) []Blame {
	var out []Blame
	for _, lv := range verdicts {
		if lv.Consistent() {
			continue
		}
		byClass := make(map[EvidenceClass]*Blame)
		var order []EvidenceClass
		for _, v := range lv.Violations {
			ev := evidenceOf(v.Kind)
			b, ok := byClass[ev]
			if !ok {
				up, down, _ := layout.LinkDomains(lv.LinkID)
				b = &Blame{
					Epoch:    epoch,
					Evidence: ev,
					LinkID:   lv.LinkID,
					HOPs:     []receipt.HOPID{lv.Up, lv.Down},
					Domains:  []string{up, down},
					Detail:   v.String(),
				}
				byClass[ev] = b
				order = append(order, ev)
			}
			b.Count++
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		for _, ev := range order {
			out = append(out, *byClass[ev])
		}
	}
	return out
}

// BlameMarkerBias builds the attribution for a suspicious marker-bias
// verdict on one domain segment: the implicated set is the domain's
// own HOP pair — the bias is computed from the domain's ingress/egress
// delta, so no neighbor shares the blame.
func BlameMarkerBias(epoch EpochID, seg Segment, rep MarkerBiasReport) Blame {
	return Blame{
		Epoch:    epoch,
		Evidence: EvMarkerBias,
		LinkID:   -1,
		HOPs:     []receipt.HOPID{seg.Up, seg.Down},
		Domains:  []string{seg.Name},
		Count:    1,
		Detail: fmt.Sprintf("domain %s: marker p90 %.3fms vs σ-sample p90 %.3fms",
			seg.Name, rep.MarkerP90MS, rep.OtherP90MS),
	}
}

// BlameHOP builds a direct, single-HOP attribution for
// dissemination-layer evidence (signature failures, epoch replays,
// withheld bundles, equivocation): the origin signed — or failed to
// produce — the offending bundle itself, so no second domain shares
// the blame.
func BlameHOP(layout Layout, epoch EpochID, ev EvidenceClass, hop receipt.HOPID, count int, detail string) Blame {
	return BlameHOPs(layout, epoch, ev, []receipt.HOPID{hop}, count, detail)
}

// BlameHOPs is BlameHOP for evidence signed by one key on behalf of
// several HOPs — a domain's payload covers every HOP of the domain, so
// a forged or pruned one implicates all of them. Domains lists each
// owning domain once, in the order of hops.
func BlameHOPs(layout Layout, epoch EpochID, ev EvidenceClass, hops []receipt.HOPID, count int, detail string) Blame {
	var domains []string
	for _, h := range hops {
		if d := layout.domainOf(h); !slices.Contains(domains, d) {
			domains = append(domains, d)
		}
	}
	return Blame{
		Epoch:    epoch,
		Evidence: ev,
		LinkID:   -1,
		HOPs:     slices.Clone(hops),
		Domains:  domains,
		Count:    count,
		Detail:   detail,
	}
}

// domainOf names the domain owning a HOP, from the first segment (of
// either kind) that ends at it.
func (l Layout) domainOf(hop receipt.HOPID) string {
	for _, s := range l.Segments {
		if s.Up == hop {
			return s.UpDomain
		}
		if s.Down == hop {
			return s.DownDomain
		}
	}
	return ""
}

// SharedBlame is one merged blame finding across many traffic keys
// and routes: the same implicated HOP set and evidence class, with the
// supporting violations summed and the distinct contributing keys
// counted. On a mesh, a faulty shared link produces one finding per
// (key, route) crossing it; merged, the evidence concentrates on the
// link's own HOP pair — many keys implicating one narrow set — while
// honest disjoint routes contribute nothing.
type SharedBlame struct {
	Blame
	// Keys is the number of distinct traffic keys whose verdicts
	// contributed to this finding.
	Keys int
}

// MergeBlames condenses per-key blame findings into shared findings:
// one per (evidence class, implicated HOP set), counts summed, keyed
// contributions counted. Output is ordered by (HOP set, evidence) so
// mesh-wide attribution is deterministic whatever order the per-key
// verdicts arrived in. The per-route LinkID ordinals are route-local
// and meaningless across routes, so merged findings carry LinkID -1;
// the HOP pair is the global link identity.
func MergeBlames(perKey map[packet.PathKey][]Blame) []SharedBlame {
	type groupKey struct {
		ev   EvidenceClass
		hops string
	}
	hopsKey := func(hops []receipt.HOPID) string {
		sorted := append([]receipt.HOPID(nil), hops...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		var b strings.Builder
		for _, h := range sorted {
			fmt.Fprintf(&b, "%d,", uint32(h))
		}
		return b.String()
	}
	merged := make(map[groupKey]*SharedBlame)
	contrib := make(map[groupKey]map[packet.PathKey]bool)
	keys := make([]packet.PathKey, 0, len(perKey))
	for k := range perKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 })
	for _, k := range keys {
		for _, b := range perKey[k] {
			gk := groupKey{ev: b.Evidence, hops: hopsKey(b.HOPs)}
			sb, ok := merged[gk]
			if !ok {
				cp := b
				cp.LinkID = -1
				cp.HOPs = append([]receipt.HOPID(nil), b.HOPs...)
				cp.Domains = append([]string(nil), b.Domains...)
				cp.Count = 0
				sb = &SharedBlame{Blame: cp}
				merged[gk] = sb
				contrib[gk] = make(map[packet.PathKey]bool)
			}
			sb.Count += b.Count
			contrib[gk][k] = true
		}
	}
	out := make([]SharedBlame, 0, len(merged))
	for gk, sb := range merged {
		sb.Keys = len(contrib[gk])
		out = append(out, *sb)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for x := 0; x < len(a.HOPs) && x < len(b.HOPs); x++ {
			if a.HOPs[x] != b.HOPs[x] {
				return a.HOPs[x] < b.HOPs[x]
			}
		}
		if len(a.HOPs) != len(b.HOPs) {
			return len(a.HOPs) < len(b.HOPs)
		}
		return a.Evidence < b.Evidence
	})
	return out
}
