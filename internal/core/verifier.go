package core

import (
	"fmt"
	"sync"

	"vpm/internal/aggregation"
	"vpm/internal/dissem"
	"vpm/internal/hashing"
	"vpm/internal/packet"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
	"vpm/internal/seqdetect"
	"vpm/internal/stats"
)

// SegmentKind distinguishes the two kinds of adjacency on a path.
type SegmentKind int

// Segment kinds.
const (
	// LinkSegment is an inter-domain link between two HOPs of
	// different domains — where consistency is checked.
	LinkSegment SegmentKind = iota
	// DomainSegment is an intra-domain crossing between a domain's
	// ingress and egress HOPs — where performance is estimated.
	DomainSegment
)

// Segment is one adjacency of the path layout.
type Segment struct {
	Kind     SegmentKind
	Up, Down receipt.HOPID
	// Name is the domain name for DomainSegment, or "A-B" for links —
	// a label only; domains are resolved from the fields below.
	Name string
	// UpDomain and DownDomain name the domains owning the Up and Down
	// HOPs.
	UpDomain, DownDomain string
	// Partial marks a domain segment whose two HOPs see different
	// subsets of a traffic key's packets — an ECMP branch or merge
	// point, where the key's routes share one HOP but not the other.
	// Aggregate-based loss across such a segment would count the
	// sibling routes' packets as losses, so domain reports skip it.
	Partial bool
}

// Layout describes a linear path's HOPs in order and its segments.
// The verifier needs it to know which HOP pairs are links (checked for
// consistency) and which are domains (estimated for performance).
type Layout struct {
	HOPs     []receipt.HOPID
	Segments []Segment
}

// DomainSegmentByName finds the domain segment with the given name.
func (l Layout) DomainSegmentByName(name string) (Segment, bool) {
	for _, s := range l.Segments {
		if s.Kind == DomainSegment && s.Name == name {
			return s, true
		}
	}
	return Segment{}, false
}

// Links returns the layout's inter-domain link segments in path
// order. The slice index is the link's LinkID — the ordinal
// VerifyAllLinks stamps on verdicts and sorts them by.
func (l Layout) Links() []Segment {
	var out []Segment
	for _, s := range l.Segments {
		if s.Kind == LinkSegment {
			out = append(out, s)
		}
	}
	return out
}

// DomainSegments returns the layout's intra-domain segments in path
// order — the units DomainReports estimates in parallel.
func (l Layout) DomainSegments() []Segment {
	var out []Segment
	for _, s := range l.Segments {
		if s.Kind == DomainSegment {
			out = append(out, s)
		}
	}
	return out
}

// VerifierConfig carries the deployment constants a verifier needs to
// reason about sampling expectations across HOPs with different rates.
type VerifierConfig struct {
	// MarkerThreshold is the system-wide µ (hashing.ThresholdForRate
	// of the marker rate). Zero means unknown: the verifier then
	// treats every upstream sample as expected downstream (strict
	// mode, correct only when all HOPs share one rate).
	MarkerThreshold uint64
	// SampleThresholds maps each HOP to its advertised σ. Missing
	// entries fall back to strict mode for that HOP.
	SampleThresholds map[receipt.HOPID]uint64
	// Workers is retired and ignored (bench/ still assigns it).
	Workers int
	// BiasChecks makes rolling verification run the marker-bias check
	// (CheckMarkerBias) per domain per epoch, attaching the verdicts —
	// and blame for suspicious ones — to each EpochKeyReport. Off by
	// default: the check needs MarkerThreshold and enough samples per
	// epoch to judge.
	BiasChecks bool
	// Sequential, when non-nil, arms the concurrent SPRT arm of
	// rolling verification: every per-epoch link and domain check also
	// feeds its per-packet evidence to the seqdetect engine, which may
	// cross a detection threshold mid-epoch — epochs before the batch
	// checks accumulate enough per-epoch weight. Sequential verdicts
	// ride on EpochReport.Seq; the batch verdicts are untouched and
	// their persisted encodings stay byte-identical to an unarmed run.
	Sequential *seqdetect.Config
}

// Verifier reads one traffic key's receipts along one HOP path: it
// estimates each domain's loss and delay and checks consistency across
// every inter-domain link (§4). The paper's verifiability argument
// requires receipts from all HOPs on the path — a verifier that sees
// only a segment cannot expose collusions (§3.1).
//
// It is a read view over the one receipt index, a leaf: inside
// RollingVerifier.VerifyEpoch over the key's windows in the ±1 epoch
// view, and otherwise over a leaf of its own that is fed by hand —
// pre-decoded receipts (AddSampleReceipt, AddAggReceipts), or
// dissemination bundles authenticated by the transport and consumed
// one at a time (Ingest). Ingest calls may run concurrently with each
// other (one goroutine per dissemination fetch); queries may run
// concurrently with queries, but not with ingest.
//
// A verifier built by NewVerifierFor (or Deployment.NewVerifier)
// answers for its traffic key and drops other keys' receipts at
// ingest. A keyless verifier (NewVerifier) answers for the one key it
// was fed; fed several, it answers for the lowest in packet.PathKey
// order and holds the others unread — it never merges keys.
type Verifier struct {
	layout Layout
	cfg    VerifierConfig

	mu    sync.Mutex // serializes ingest into leaf
	leaf  leaf
	idx   indexScratch // leaf.add's
	key   packet.PathKey
	keyed bool
	// wins, when set, are the key's windows already resolved against a
	// per-epoch evidence view (see epochView.resolve); queries then never
	// touch leaf.
	wins []hopWindow
}

// NewVerifier builds a keyless verifier for the given path layout.
func NewVerifier(layout Layout) *Verifier {
	return &Verifier{layout: layout, leaf: make(leaf)}
}

// NewVerifierFor builds a verifier for one traffic key: receipts for
// other origin-prefix pairs (e.g. in multi-path dissemination bundles)
// are dropped at ingest.
func NewVerifierFor(layout Layout, key packet.PathKey) *Verifier {
	v := NewVerifier(layout)
	v.key, v.keyed = key, true
	return v
}

// SetConfig installs the deployment constants (see VerifierConfig).
func (v *Verifier) SetConfig(cfg VerifierConfig) { v.cfg = cfg }

// indexFor resolves the window answering queries about hop.
func (v *Verifier) indexFor(hop receipt.HOPID) window {
	if v.wins == nil {
		return soleWindow(v.leaf[v.queried()].of(hop))
	}
	for i := range v.wins {
		if v.wins[i].hop == hop {
			return v.wins[i].win
		}
	}
	return window{}
}

// queried returns the traffic key a hand-fed verifier answers for.
func (v *Verifier) queried() packet.PathKey {
	if v.keyed {
		return v.key
	}
	var low packet.PathKey
	first := true
	for k := range v.leaf {
		if first || k.Compare(low) < 0 {
			low, first = k, false
		}
	}
	return low
}

// add files one HOP's receipts, copying them: the caller may reuse its
// slices.
func (v *Verifier) add(hop receipt.HOPID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
	v.mu.Lock()
	defer v.mu.Unlock()
	var f keyFilter
	if v.keyed {
		f.only = &v.key
	}
	v.leaf.add([]delivery{{hop: hop, samples: samples, aggs: aggs}}, false, f, &v.idx)
}

// AddSampleReceipt ingests one HOP's sample receipt.
func (v *Verifier) AddSampleReceipt(hop receipt.HOPID, r receipt.SampleReceipt) {
	v.add(hop, []receipt.SampleReceipt{r}, nil)
}

// AddAggReceipts ingests one HOP's aggregate receipts, in stream
// order.
func (v *Verifier) AddAggReceipts(hop receipt.HOPID, rs []receipt.AggReceipt) {
	v.add(hop, nil, rs)
}

// Ingest consumes one decoded dissemination bundle: every sample and
// aggregate receipt in it is filed under the bundle's origin HOP.
// Bundles may arrive in any order and may interleave traffic keys.
func (v *Verifier) Ingest(b *dissem.Bundle) {
	v.add(b.Origin, b.Samples, b.Aggs)
}

// Sink adapts the verifier to the EpochSink shape, so whatever seals an
// interval — Deployment.Seal, an adversary sink in front of it — can
// feed it directly.
func (v *Verifier) Sink() EpochSink {
	return func(hop receipt.HOPID, _ EpochID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
		v.add(hop, samples, aggs)
	}
}

// DelaysBetween returns the per-packet delays (nanoseconds, as
// float64 for the statistics layer) of the packets sampled by both
// HOPs: Rb.Time − Ra.Time per common PktID (§4, Receipt-based
// Statistics), in b's deterministic first-arrival packet order.
func (v *Verifier) DelaysBetween(a, b receipt.HOPID) []float64 {
	return v.wholeStream().delaysBetween(Segment{Up: a, Down: b}, nil)
}

// MarkerBiasReport is the outcome of the marker-preference check — an
// extension beyond the paper. Markers are the one part of VPM's sample
// set a domain can predict at forwarding time (µ is a public system
// constant), so a domain could treat markers preferentially: its loss
// accounting stays exact, but steep delay tails can be flattered
// because the always-sampled markers skip the congestion the σ-keyed
// samples suffer. The check compares the delay distributions of marker
// and non-marker samples between a domain's HOPs; honest treatment
// makes them statistically indistinguishable (markers are
// hash-selected, hence a uniform subsample).
type MarkerBiasReport struct {
	MarkerN, OtherN           int
	MarkerP90MS, OtherP90MS   float64
	MarkerMeanMS, OtherMeanMS float64
	// Suspicious is set when markers are systematically faster than
	// σ-keyed samples beyond sampling noise.
	Suspicious bool
}

// CheckMarkerBias compares marker vs non-marker delay distributions
// between two HOPs. It requires the verifier's MarkerThreshold to be
// configured.
func (v *Verifier) CheckMarkerBias(a, b receipt.HOPID) (MarkerBiasReport, error) {
	var rep MarkerBiasReport
	mu := v.cfg.MarkerThreshold
	if mu == 0 {
		return rep, fmt.Errorf("core: marker threshold not configured")
	}
	wa, wb := v.indexFor(a), v.indexFor(b)
	var markers, others []float64
	for _, id := range wb.uniq() {
		ta, ok := wa.timeOf(id)
		if !ok {
			continue
		}
		tb, _ := wb.timeOf(id)
		d := float64(tb - ta)
		if hashing.Exceeds(id, mu) {
			markers = append(markers, d)
		} else {
			others = append(others, d)
		}
	}
	rep.MarkerN, rep.OtherN = len(markers), len(others)
	if len(markers) < 10 || len(others) < 10 {
		return rep, fmt.Errorf("core: too few samples to judge marker bias (%d markers, %d others)",
			len(markers), len(others))
	}
	rep.MarkerP90MS = stats.Quantile(markers, 0.9) / 1e6
	rep.OtherP90MS = stats.Quantile(others, 0.9) / 1e6
	rep.MarkerMeanMS = stats.Mean(markers) / 1e6
	rep.OtherMeanMS = stats.Mean(others) / 1e6
	// Honest markers are a uniform subsample: their median should sit
	// inside the others' distribution. Flag when the marker p90 falls
	// below the others' median — far outside subsampling noise for
	// the populations required above.
	otherP50 := stats.Quantile(others, 0.5) / 1e6
	rep.Suspicious = rep.MarkerP90MS < otherP50
	return rep, nil
}

// CorroboratedDelays returns the delays between HOPs a and b
// restricted to the packets that HOP witness also sampled — the
// subset of a domain's claims a third party can actually verify.
// The §7.2 verifiability analysis is built on this: the witness's
// sampling rate caps the quality of verification.
func (v *Verifier) CorroboratedDelays(a, b, witness receipt.HOPID) []float64 {
	wa, wb, ww := v.indexFor(a), v.indexFor(b), v.indexFor(witness)
	uw := ww.uniq()
	if !wa.hasSamples() || !wb.hasSamples() || len(uw) == 0 {
		return nil
	}
	out := make([]float64, 0, len(uw))
	for _, id := range uw {
		ta, okA := wa.timeOf(id)
		tb, okB := wb.timeOf(id)
		if okA && okB {
			out = append(out, float64(tb-ta))
		}
	}
	return out
}

// LossReport is the aggregate-based loss computation between two HOPs.
type LossReport struct {
	// Pairs are the joined (and patch-up aligned) aggregates.
	Pairs []aggregation.Pair
	// In is the total packets the upstream HOP counted; Lost is the
	// total difference.
	In, Lost int64
	// Migrations counts packets the §6.3 patch-up moved across
	// cutting points.
	Migrations int
}

// Rate returns the measured loss rate.
func (r LossReport) Rate() float64 {
	if r.In == 0 {
		return 0
	}
	return float64(r.Lost) / float64(r.In)
}

// LossBetween computes the loss between two HOPs from their aggregate
// receipts via the §6 join + patch-up pipeline.
func (v *Verifier) LossBetween(a, b receipt.HOPID) (LossReport, error) {
	rep, ok := v.wholeStream().lossBetween(a, b)
	if !ok {
		return LossReport{}, fmt.Errorf("core: missing aggregate receipts between %v and %v", a, b)
	}
	return rep, nil
}

// LinkVerdict is the outcome of checking one inter-domain link.
type LinkVerdict struct {
	// LinkID is the link's ordinal along the path (see Layout.Links);
	// VerifyAllLinks returns verdicts sorted by it.
	LinkID   int
	Up, Down receipt.HOPID
	// Violations found (empty = consistent).
	Violations []receipt.Inconsistency
	// MatchedSamples is how many sampled packets both ends reported.
	MatchedSamples int
	// MissingDown and MissingUp count the expected but missing records
	// in each direction; each is also one of Violations.
	MissingDown, MissingUp int
}

// Consistent reports whether the link's receipts agree.
func (lv LinkVerdict) Consistent() bool { return len(lv.Violations) == 0 }

// String renders the verdict.
func (lv LinkVerdict) String() string {
	if lv.Consistent() {
		return fmt.Sprintf("link %v-%v: consistent (%d matched samples)", lv.Up, lv.Down, lv.MatchedSamples)
	}
	return fmt.Sprintf("link %v-%v: %d violations, e.g. %v", lv.Up, lv.Down, len(lv.Violations), lv.Violations[0])
}

// CheckLink verifies the receipts of the two HOPs at the ends of one
// inter-domain link over everything the verifier holds (see
// checkScope.checkLink for the checks and their semantics).
func (v *Verifier) CheckLink(up, down receipt.HOPID) LinkVerdict {
	return v.wholeStream().checkLink(0, up, down)
}

// VerifyAllLinks checks every inter-domain link on the path; the
// verdicts return LinkID-sorted (path order).
func (v *Verifier) VerifyAllLinks() []LinkVerdict {
	links := v.layout.Links()
	if len(links) == 0 {
		return nil
	}
	out := make([]LinkVerdict, len(links))
	whole := v.wholeStream()
	for i := range links {
		out[i] = whole.checkLink(i, links[i].Up, links[i].Down)
	}
	return out
}

// DomainReport is a verifier's estimate of one domain's performance.
type DomainReport struct {
	Name            string
	Ingress, Egress receipt.HOPID
	Loss            LossReport
	// PartialLoss is set when the segment is an ECMP branch/merge
	// point (Segment.Partial): the two HOPs see different subsets of
	// the key's packets, so the aggregate loss comparison is skipped
	// and Loss stays zero. Delay estimates remain valid — matched
	// samples intersect to the common subset.
	PartialLoss      bool
	DelaySamples     int
	DelayEstimates   []quantile.Estimate
	DelayEstimateErr string // non-empty when no samples matched
}

// DomainReport estimates the named domain's loss and delay from its
// own receipts.
func (v *Verifier) DomainReport(name string, qs []float64, confidence float64) (DomainReport, error) {
	seg, ok := v.layout.DomainSegmentByName(name)
	if !ok {
		return DomainReport{}, fmt.Errorf("core: no domain %q in layout", name)
	}
	return v.wholeStream().domainReport(seg, qs, confidence)
}

// DomainReports estimates every transit domain on the path, in path
// order. An estimate fails only on invalid quantiles or confidence;
// the first failure aborts, as it aborts RollingVerifier.VerifyEpoch.
func (v *Verifier) DomainReports(qs []float64, confidence float64) ([]DomainReport, error) {
	var out []DomainReport
	whole := v.wholeStream()
	for _, seg := range v.layout.DomainSegments() {
		dr, err := whole.domainReport(seg, qs, confidence)
		if err != nil {
			return nil, err
		}
		out = append(out, dr)
	}
	return out, nil
}
