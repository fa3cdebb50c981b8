package adversary

import (
	"sort"
	"sync"

	"vpm/internal/core"
	"vpm/internal/receipt"
	"vpm/internal/stats"
)

// This file is the control plane: adversaries that rewrite *sealed
// receipts* between collection and publication — the lying control
// plane of §2.1, which constructs receipts from incomplete or
// fabricated information. Its lies can span a domain's HOP pair or echo
// a neighbor's claims (collusion, §3.1), so NewAdversarySink buffers
// each epoch until every tapped HOP has sealed it and hands the
// adversary the complete set at once; a continuous run's epoch driver
// and a one-shot run's core.Deployment.Seal (epoch 0) both seal into
// it. FabricateDelivery, ShaveDelays, CoverUpReceipt and CoverUpAggs
// are the same lies as plain transformations over honest receipts:
// each surfaces as an inter-domain inconsistency that exposes the liar
// to the neighbor it implicates, or needs a colluder to absorb the
// blame.

// SealedEpoch is one HOP's sealed interval as the adversary sees it:
// the receipts the honest collector produced, mutable in place.
type SealedEpoch struct {
	HOP     receipt.HOPID
	Epoch   core.EpochID
	Samples []receipt.SampleReceipt
	Aggs    []receipt.AggReceipt
}

// EpochAdversary is a lying control plane. Taps names the HOPs whose
// sealed intervals it intercepts (the HOPs its domain owns, plus any
// upstream neighbor it colludes with); Corrupt receives one epoch's
// sealed intervals across every tapped HOP — keyed by HOP — and
// mutates them in place before publication. Corrupt is called once
// per epoch, in ascending epoch order, from a single goroutine.
type EpochAdversary interface {
	// Name identifies the adversary in reports and matrix rows.
	Name() string
	// Taps returns the HOPs whose sealed epochs the adversary
	// intercepts.
	Taps() []receipt.HOPID
	// Corrupt rewrites one epoch's sealed intervals in place.
	Corrupt(epoch core.EpochID, sealed map[receipt.HOPID]*SealedEpoch)
}

// adversarySink buffers sealed intervals from tapped HOPs until an
// epoch is complete across all taps, corrupts it, and forwards the
// results to the underlying sink. Non-tapped HOPs pass straight
// through. Safe for concurrent use (distinct HOPs seal from distinct
// replay goroutines); completed epochs flush in ascending order
// because every tap seals its own epochs in order.
type adversarySink struct {
	next core.EpochSink
	adv  EpochAdversary
	taps map[receipt.HOPID]bool

	mu      sync.Mutex
	pending map[core.EpochID]map[receipt.HOPID]*SealedEpoch
}

// NewAdversarySink interposes adv between an epoch pipeline and sink:
// sealed intervals from the adversary's tapped HOPs are held until the
// epoch is complete across all taps, corrupted as a set, and forwarded
// in HOP order. Chain several adversaries by wrapping repeatedly — the
// outermost wrap sees honest receipts first, and each inner layer sees
// its predecessor's output (a colluder taps the liar's already-forged
// egress, exactly as §3.1's chain argument requires).
func NewAdversarySink(sink core.EpochSink, adv EpochAdversary) core.EpochSink {
	taps := make(map[receipt.HOPID]bool)
	for _, h := range adv.Taps() {
		taps[h] = true
	}
	as := &adversarySink{
		next:    sink,
		adv:     adv,
		taps:    taps,
		pending: make(map[core.EpochID]map[receipt.HOPID]*SealedEpoch),
	}
	return as.seal
}

// seal is the core.EpochSink the wrapped pipeline drives.
func (as *adversarySink) seal(hop receipt.HOPID, epoch core.EpochID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
	if !as.taps[hop] {
		as.next(hop, epoch, samples, aggs)
		return
	}
	// The mutex stays held through Corrupt and forwarding: completed
	// epochs can be detected on different replay goroutines, and the
	// adversary contract promises serialized, ascending Corrupt calls
	// (the chain of sinks is acyclic, so holding it is deadlock-free).
	as.mu.Lock()
	defer as.mu.Unlock()
	set, ok := as.pending[epoch]
	if !ok {
		set = make(map[receipt.HOPID]*SealedEpoch, len(as.taps))
		as.pending[epoch] = set
	}
	set[hop] = &SealedEpoch{HOP: hop, Epoch: epoch, Samples: samples, Aggs: aggs}
	if len(set) < len(as.taps) {
		return
	}
	delete(as.pending, epoch)

	as.adv.Corrupt(epoch, set)
	hops := make([]receipt.HOPID, 0, len(set))
	for h := range set {
		hops = append(hops, h)
	}
	sort.Slice(hops, func(i, j int) bool { return hops[i] < hops[j] })
	for _, h := range hops {
		se := set[h]
		as.next(se.HOP, se.Epoch, se.Samples, se.Aggs)
	}
}

// epochWindow reports whether an epoch falls inside a half-open
// [from, to) activation window; to = 0 means unbounded.
func epochWindow(epoch, from, to core.EpochID) bool {
	return epoch >= from && (to == 0 || epoch < to)
}

// Fabricator is the blame-shift lie of §3.1 as a pluggable control
// plane: domain X drops traffic but publishes egress receipts forged
// from its ingress receipts — every packet that entered is claimed
// delivered ClaimedDelayNS later, and the egress aggregates echo the
// ingress counts (zero loss). The forged claims are inconsistent with
// the downstream neighbor's ingress receipts, which expose the missing
// packets on the shared link.
type Fabricator struct {
	// Ingress and Egress are the lying domain's HOPs.
	Ingress, Egress receipt.HOPID
	// RewritePath maps an ingress receipt's PathID to the PathID the
	// forged egress receipt must carry (Deployment paths differ per
	// HOP position).
	RewritePath func(ingress receipt.PathID) receipt.PathID
	// ClaimedDelayNS is the flattering constant transit time claimed.
	ClaimedDelayNS int64
	// From and To bound the active epochs ([From, To); To = 0 means
	// unbounded) — an attack can straddle rotations.
	From, To core.EpochID
}

// Name implements EpochAdversary.
func (f *Fabricator) Name() string { return "fabricate-delivery" }

// Taps implements EpochAdversary.
func (f *Fabricator) Taps() []receipt.HOPID { return []receipt.HOPID{f.Ingress, f.Egress} }

// Corrupt replaces the egress interval with a forgery of the ingress
// interval.
func (f *Fabricator) Corrupt(epoch core.EpochID, sealed map[receipt.HOPID]*SealedEpoch) {
	if !epochWindow(epoch, f.From, f.To) {
		return
	}
	in, eg := sealed[f.Ingress], sealed[f.Egress]
	if in == nil || eg == nil {
		return
	}
	eg.Samples = eg.Samples[:0]
	for _, s := range in.Samples {
		fs, _ := FabricateDelivery(s, nil, f.RewritePath(s.Path), f.ClaimedDelayNS)
		eg.Samples = append(eg.Samples, fs)
	}
	eg.Aggs = eg.Aggs[:0]
	for _, a := range in.Aggs {
		_, fa := FabricateDelivery(receipt.SampleReceipt{}, []receipt.AggReceipt{a}, f.RewritePath(a.Path), f.ClaimedDelayNS)
		eg.Aggs = append(eg.Aggs, fa...)
	}
}

// Colluder is the §3.1 cover-up: the downstream neighbor taps the
// liar's (already forged) egress interval and replaces its own ingress
// interval with an echo — every claimed delivery is "received"
// LinkDelayNS later, counts included. The shared link now looks
// consistent, but the vanished packets reappear as loss *inside* the
// colluder: the blame has moved, not disappeared, which is the
// paper's containment guarantee for colluding neighbor sets.
type Colluder struct {
	// LiarEgress is the upstream neighbor's egress HOP being covered.
	LiarEgress receipt.HOPID
	// OwnIngress is the colluder's ingress HOP, whose receipts are
	// replaced.
	OwnIngress receipt.HOPID
	// RewritePath maps the liar's egress PathID to the colluder's
	// ingress PathID.
	RewritePath func(liar receipt.PathID) receipt.PathID
	// LinkDelayNS is the plausible link transit claimed.
	LinkDelayNS int64
	// From and To bound the active epochs ([From, To); To = 0 means
	// unbounded).
	From, To core.EpochID
}

// Name implements EpochAdversary.
func (c *Colluder) Name() string { return "collude-coverup" }

// Taps implements EpochAdversary.
func (c *Colluder) Taps() []receipt.HOPID { return []receipt.HOPID{c.LiarEgress, c.OwnIngress} }

// Corrupt replaces the colluder's ingress interval with the echo.
func (c *Colluder) Corrupt(epoch core.EpochID, sealed map[receipt.HOPID]*SealedEpoch) {
	if !epochWindow(epoch, c.From, c.To) {
		return
	}
	liar, own := sealed[c.LiarEgress], sealed[c.OwnIngress]
	if liar == nil || own == nil {
		return
	}
	own.Samples = own.Samples[:0]
	for _, s := range liar.Samples {
		own.Samples = append(own.Samples, CoverUpReceipt(s, c.RewritePath(s.Path), c.LinkDelayNS))
	}
	own.Aggs = own.Aggs[:0]
	for _, a := range liar.Aggs {
		own.Aggs = append(own.Aggs, CoverUpAggs([]receipt.AggReceipt{a}, c.RewritePath(a.Path), c.LinkDelayNS)...)
	}
}

// RecordDropper is the under-reporting lie at the receipt level: the
// control plane deletes a deterministic fraction of its sample records
// before publication (say, the embarrassing ones), leaving aggregates
// honest. Records the neighbor did report become missing-record
// evidence against the dropper's link (§4).
type RecordDropper struct {
	// HOP whose sample records are thinned.
	HOP receipt.HOPID
	// Fraction of sample records to delete, in [0,1].
	Fraction float64
	// Seed drives the deterministic deletions.
	Seed uint64
	// From and To bound the active epochs ([From, To); To = 0 means
	// unbounded).
	From, To core.EpochID

	rng *stats.RNG
}

// Name implements EpochAdversary.
func (r *RecordDropper) Name() string { return "drop-sample-records" }

// Taps implements EpochAdversary.
func (r *RecordDropper) Taps() []receipt.HOPID { return []receipt.HOPID{r.HOP} }

// Corrupt thins the HOP's sample records in place.
func (r *RecordDropper) Corrupt(epoch core.EpochID, sealed map[receipt.HOPID]*SealedEpoch) {
	if r.rng == nil {
		r.rng = stats.NewRNG(r.Seed ^ 0xd20bbed)
	}
	if !epochWindow(epoch, r.From, r.To) {
		return
	}
	se := sealed[r.HOP]
	if se == nil {
		return
	}
	for i := range se.Samples {
		kept := se.Samples[i].Samples[:0]
		for _, rec := range se.Samples[i].Samples {
			if r.rng.Bool(r.Fraction) {
				continue
			}
			kept = append(kept, rec)
		}
		se.Samples[i].Samples = kept
	}
}

// FabricateDelivery is the blame-shift lie: domain X dropped packets
// but claims it delivered everything. Its egress receipts are forged
// from its ingress receipts — every packet that entered is reported as
// delivered claimedDelayNS later (a flattering, constant transit
// time). The forged egress claims are inconsistent with the downstream
// neighbor's ingress receipts, which expose the missing packets.
func FabricateDelivery(ingressSamples receipt.SampleReceipt, ingressAggs []receipt.AggReceipt,
	egressPath receipt.PathID, claimedDelayNS int64) (receipt.SampleReceipt, []receipt.AggReceipt) {

	fs := receipt.SampleReceipt{Path: egressPath}
	for _, s := range ingressSamples.Samples {
		fs.Samples = append(fs.Samples, receipt.SampleRecord{
			PktID:  s.PktID,
			TimeNS: s.TimeNS + claimedDelayNS,
		})
	}
	var fa []receipt.AggReceipt
	for _, a := range ingressAggs {
		f := receipt.AggReceipt{
			Path:   egressPath,
			Agg:    a.Agg,
			PktCnt: a.PktCnt, // claims zero loss
		}
		for _, t := range a.AggTrans {
			f.AggTrans = append(f.AggTrans, receipt.SampleRecord{PktID: t.PktID, TimeNS: t.TimeNS + claimedDelayNS})
		}
		fa = append(fa, f)
	}
	return fs, fa
}

// ShaveDelays is the delay-exaggeration lie: the liar reports its
// egress timestamps compressed toward its ingress timestamps so its
// delay quantiles look better. factor 0 reports zero transit time;
// factor 1 is honest. The compressed egress times understate the time
// the packets reached the next HOP, so the link deltas blow past
// MaxDiff and the lie surfaces as DelayBound inconsistencies.
func ShaveDelays(ingress, egress receipt.SampleReceipt, factor float64) receipt.SampleReceipt {
	inTime := make(map[uint64]int64, len(ingress.Samples))
	for _, s := range ingress.Samples {
		inTime[s.PktID] = s.TimeNS
	}
	out := receipt.SampleReceipt{Path: egress.Path}
	for _, s := range egress.Samples {
		t := s.TimeNS
		if tin, ok := inTime[s.PktID]; ok {
			t = tin + int64(float64(s.TimeNS-tin)*factor)
		}
		out.Samples = append(out.Samples, receipt.SampleRecord{PktID: s.PktID, TimeNS: t})
	}
	return out
}

// CoverUpReceipt is the collusion lie: downstream neighbor N covers
// X's fabricated deliveries by claiming it received the packets X
// never delivered. N's forged ingress receipt echoes X's (fabricated)
// egress claims shifted by a plausible link delay. N now holds the
// blame: either its own egress receipts show the loss inside N, or N
// must lie to *its* downstream neighbor and be exposed there (§3.1).
func CoverUpReceipt(liarEgress receipt.SampleReceipt, ownPath receipt.PathID, linkDelayNS int64) receipt.SampleReceipt {
	out := receipt.SampleReceipt{Path: ownPath}
	for _, s := range liarEgress.Samples {
		out.Samples = append(out.Samples, receipt.SampleRecord{
			PktID:  s.PktID,
			TimeNS: s.TimeNS + linkDelayNS,
		})
	}
	return out
}

// CoverUpAggs forges N's ingress aggregate receipts to match X's
// fabricated counts.
func CoverUpAggs(liarEgress []receipt.AggReceipt, ownPath receipt.PathID, linkDelayNS int64) []receipt.AggReceipt {
	var out []receipt.AggReceipt
	for _, a := range liarEgress {
		f := receipt.AggReceipt{Path: ownPath, Agg: a.Agg, PktCnt: a.PktCnt}
		for _, t := range a.AggTrans {
			f.AggTrans = append(f.AggTrans, receipt.SampleRecord{PktID: t.PktID, TimeNS: t.TimeNS + linkDelayNS})
		}
		out = append(out, f)
	}
	return out
}
