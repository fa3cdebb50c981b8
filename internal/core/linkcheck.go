package core

import (
	"fmt"
	"slices"
	"sort"

	"vpm/internal/aggregation"
	"vpm/internal/hashing"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
	"vpm/internal/seqdetect"
)

// This file is the one implementation of the §4 checks: the link check
// (MaxDiff agreement, timestamp bound, missing records under the subset
// property, aggregate counts) and the per-domain loss and delay
// estimate. RollingVerifier.VerifyEpoch runs them for every verdict a
// report carries — a one-shot run's too, as epoch 0 of a one-epoch
// stream (Deployment.VerifyOnce) — and a hand-fed Verifier's queries
// (CheckLink, DomainReport, …) run them over its one leaf. What differs
// is the scope handed in.
//
// A scope separates two sets of receipts:
//
//   - claims — the records this run vouches for, each judged exactly
//     once;
//   - evidence — the records a claim's counterpart may be found in.
//
// When the evidence is one leaf that reaches both ends of the stream —
// a hand-fed verifier's, or a one-epoch stream's epoch 0 — the whole
// stream is in view, so the claims are the evidence and nothing is
// trimmed. An epoch of a longer stream cannot simply be checked against
// itself: receipts for the same packet legitimately seal in adjacent
// epochs at different HOPs. A sample is
// sealed in the epoch of its *deciding marker* (Algorithm 1 decides a
// packet only when the next marker arrives), and the same marker
// crosses each HOP at a slightly different local time; likewise an
// aggregate seals where its cutting point lands. The skew is bounded by
// one interval (marker transit and propagation delay are far below any
// sane epoch length), so the per-epoch claims are the receipts sealed
// in the target epoch and the evidence is the ±1-epoch view around it.
//
// Missing-record judgments iterate the claims but match against the
// evidence, so boundary spill never reads as a lie, while every record
// is still judged exactly once — in the epoch that sealed it.
// Aggregate counts are compared only over regions bounded by cutting
// points common to both ends within the evidence (Join's half-open edge
// regions are trimmed when the evidence is a window); the untrimmed
// full-stream comparison is exactly the one-shot verdict, which
// continuous operation reproduces byte-for-byte when epochs are unioned
// (TestBatchContinuousEquivalence).

// checkScope is what one run of the §4 checks may look at.
type checkScope struct {
	// view is the evidence, restricted to the traffic key under check,
	// and carries the deployment constants.
	view *Verifier
	// claims holds the records this run vouches for — the key's entry
	// in the target interval's leaf when the evidence spans neighbouring
	// leaves too; nil means the claims are the evidence (one leaf).
	claims *pathIndex
	// headComplete reports that the evidence's lower edge is the true
	// stream start: nothing precedes the first joined pair, so no
	// patch-up evidence is missing at its leading boundary and the head
	// region may be compared.
	headComplete bool
	// tailComplete reports that nothing exists beyond the evidence's
	// upper edge (the stream finished at or inside it), so Join's tail
	// region is bounded and may be compared.
	tailComplete bool
	// seq, when non-nil, is where the checks collect their per-packet
	// evidence for the sequential arm and hand it to their detectors (see
	// seqarm.go).
	seq *seqArm
	// scratch is the checks' working storage, owned by whoever runs the
	// scope: a RollingVerifier's, reused for every key of every epoch,
	// or the scope's own for a hand-fed verifier's query.
	scratch *kernelScratch
}

// kernelScratch is what the checks reuse from one (key, segment) to the
// next instead of allocating: the §6 join's, the delay samples a domain
// estimate sorts and the order-statistic bounds of the sample counts
// seen. Nothing a report keeps points into it. One belongs to each
// verifying goroutine; it is never shared.
type kernelScratch struct {
	join   aggregation.Joiner
	delays []float64
	bounds quantile.BoundsMemo
}

// wholeStream is a hand-fed verifier's scope: claims = evidence =
// everything its leaf holds, nothing trimmed. Queries may run
// concurrently, so each scope has scratch of its own.
func (v *Verifier) wholeStream() *checkScope {
	return &checkScope{view: v, headComplete: true, tailComplete: true, scratch: new(kernelScratch)}
}

// claimed returns the packets hop vouches for in this scope, in
// first-arrival order.
func (s *checkScope) claimed(hop receipt.HOPID) []uint64 {
	if s.claims != nil {
		return s.claims.of(hop).uniqOrder()
	}
	w := s.view.indexFor(hop)
	return w.uniq()
}

// checkLink verifies the receipts of the two HOPs at the ends of one
// inter-domain link (§4): MaxDiff agreement, the timestamp bound and
// missing-record checks for the claimed packets, and aggregate-count
// equality over the commonly-bounded regions of the evidence. Packets
// are visited in each HOP's first-arrival order, so the verdict —
// including the order of its violations — is deterministic.
//
// Missing-record semantics: a packet one end sampled is expected in the
// other end's receipt exactly when the other HOP's advertised sampling
// threshold selects it under every marker that could have decided it
// there (the verifier re-derives the Algorithm 1 decision from the
// receipts; see expectedSampled). Every expected but missing record is
// an inconsistency — caused either by a faulty link or by a lie; the
// two neighbors then debug the link, and if it is healthy the liar
// stands exposed to the neighbor it implicated (§3.1).
func (s *checkScope) checkLink(linkID int, up, down receipt.HOPID) LinkVerdict {
	v := s.view
	lv := LinkVerdict{LinkID: linkID, Up: up, Down: down}
	iu, id := v.indexFor(up), v.indexFor(down)
	pu, hasU := iu.path()
	pd, hasD := id.path()
	if hasU && hasD && pu.MaxDiffNS != pd.MaxDiffNS {
		lv.Violations = append(lv.Violations, receipt.Inconsistency{
			Kind:   receipt.MaxDiffMismatch,
			Detail: fmt.Sprintf("%v advertises %dns, %v advertises %dns", up, pu.MaxDiffNS, down, pd.MaxDiffNS),
		})
	}
	maxDiff := pu.MaxDiffNS

	// The sequential arm's trial streams, in claims order: the first
	// interleaves keep/drop Bernoulli trials with matched link deltas
	// (one mixed stream serves both the loss and the delay detector —
	// each skips the other's kinds); the second, from mid, is the
	// mirror-direction trial stream over the downstream HOP's claims.
	c := s.seq
	if c != nil {
		c.items = c.items[:0]
	}
	detail := missingDetails{up: up, down: down}
	for _, pid := range s.claimed(up) {
		tu, _ := iu.timeOf(pid)
		td, ok := id.timeOf(pid)
		if !ok {
			if s.expectedSampled(&iu, &id, down, 0, maxDiff, pid) {
				lv.MissingDown++
				lv.Violations = append(lv.Violations, receipt.Inconsistency{
					Kind:   receipt.MissingDownstream,
					PktID:  pid,
					Detail: detail.missingDownstream(),
				})
				if c != nil {
					c.items = append(c.items, seqdetect.Evidence{Kind: seqdetect.KindDrop})
				}
			}
			continue
		}
		lv.MatchedSamples++
		delta := td - tu
		if c != nil {
			c.items = append(c.items,
				seqdetect.Evidence{Kind: seqdetect.KindKeep},
				seqdetect.Evidence{Kind: seqdetect.KindDelta, Value: float64(delta)})
		}
		if delta < 0 || delta > maxDiff {
			lv.Violations = append(lv.Violations, receipt.Inconsistency{
				Kind:   receipt.DelayBound,
				PktID:  pid,
				Detail: fmt.Sprintf("link delta %dns outside [0, MaxDiff %dns]", delta, maxDiff),
			})
		}
	}
	var mid int
	if c != nil {
		mid = len(c.items)
	}
	for _, pid := range s.claimed(down) {
		if _, ok := iu.timeOf(pid); !ok {
			if s.expectedSampled(&id, &iu, up, -maxDiff, 0, pid) {
				lv.MissingUp++
				lv.Violations = append(lv.Violations, receipt.Inconsistency{
					Kind:   receipt.MissingUpstream,
					PktID:  pid,
					Detail: detail.missingUpstream(),
				})
				if c != nil {
					c.items = append(c.items, seqdetect.Evidence{Kind: seqdetect.KindDrop})
				}
			}
		} else if c != nil {
			c.items = append(c.items, seqdetect.Evidence{Kind: seqdetect.KindKeep})
		}
	}
	if c != nil {
		c.link(up, down, mid)
	}

	if ra, rb := iu.aggReceipts(), id.aggReceipts(); len(ra) > 0 && len(rb) > 0 {
		pairs, _ := s.scratch.join.Join(ra, rb)
		bounded := s.boundedPairs(pairs, ra, rb)
		for i := 0; i < len(bounded); i++ {
			p := &bounded[i]
			if p.A.PktCnt == p.B.PktCnt {
				continue
			}
			if i+1 < len(bounded) && tiedAtCut(p, &bounded[i+1]) {
				i++
				continue
			}
			lv.Violations = append(lv.Violations, receipt.CheckAggPair(p.A, p.B)...)
		}
	}
	return lv
}

// tiedAtCut reports whether the count differences of two adjacent
// joined pairs are one packet set's shift across the cut between them,
// which the patch-up cannot see. A cut's AggTrans window holds what its
// HOP observed within J before the cut and *strictly later* than the
// cut, up to J after it: a packet observed at the cut's own timestamp,
// after the cut, is in neither half. When the other HOP saw that packet
// before the cut, the patch-up finds it in one window only and migrates
// nothing, and the pairs on either side differ by one packet each, in
// opposite directions, on a link that delivered everything. So the two
// pairs are judged together, as if the cut were not common: their
// differences must cancel, and the packets that only the HOP counting
// more before the cut saw before it must be enough to account for the
// shift. A lost packet makes no such pair — it leaves a difference
// nothing cancels.
func tiedAtCut(p, q *aggregation.Pair) bool {
	d := int64(p.A.PktCnt) - int64(p.B.PktCnt)
	cut := q.A.Agg.First
	if int64(q.A.PktCnt)-int64(q.B.PktCnt) != -d || cut != q.B.Agg.First {
		return false
	}
	more, other := p.B.AggTrans, p.A.AggTrans
	if d > 0 {
		more, other = p.A.AggTrans, p.B.AggTrans
	}
	unseen := int64(0)
	for _, r := range more {
		if r.PktID == cut {
			break
		}
		if !slices.ContainsFunc(other, func(o receipt.SampleRecord) bool { return o.PktID == r.PktID }) {
			unseen++
		}
	}
	return unseen >= max(d, -d)
}

// boundedPairs trims a joined sequence to the pairs whose packet
// regions can actually be judged inside the evidence:
//
//   - Interior pairs — bounded by cutting points common to both HOPs,
//     with a preceding pair in view — are always comparable: the join's
//     patch-up already migrated reordered packets across both of their
//     boundaries.
//   - The head pair is comparable only when the evidence reaches the
//     true stream start AND, when it spans neighbouring leaves, both
//     sequences begin at the same packet; otherwise its leading
//     boundary's patch-up evidence (the AggTrans of the preceding,
//     out-of-view aggregate) is missing and a few legitimately migrated
//     packets would read as a count lie.
//   - The tail pair is comparable only when nothing beyond the evidence
//     can extend either sequence (stream finished inside it).
//
// Half-open edge regions compare receipts for different packet sets —
// seal-epoch skew, not lies — and are left to the reports whose view
// does bound them; a one-leaf scope reaching both ends of the stream
// trims nothing and remains the complete backstop.
func (s *checkScope) boundedPairs(pairs []aggregation.Pair, a, b []receipt.AggReceipt) []aggregation.Pair {
	lo, hi := 0, len(pairs)
	if !s.headComplete || (s.claims != nil && a[0].Agg.First != b[0].Agg.First) {
		lo = 1
	}
	if !s.tailComplete {
		hi--
	}
	if lo >= hi {
		return nil
	}
	return pairs[lo:hi]
}

// lossBetween computes the loss between two HOPs from their aggregate
// receipts via the §6 join + patch-up pipeline, over the
// commonly-bounded joined aggregates of the evidence. ok is false when
// either HOP reported no aggregates. The report keeps a copy of the
// bounded pairs — the join's own are scratch the next join overwrites —
// whose AggTrans still reference the receipts' windows.
func (s *checkScope) lossBetween(a, b receipt.HOPID) (rep LossReport, ok bool) {
	wa, wb := s.view.indexFor(a), s.view.indexFor(b)
	ra, rb := wa.aggReceipts(), wb.aggReceipts()
	if len(ra) == 0 || len(rb) == 0 {
		return rep, false
	}
	pairs, migrations := s.scratch.join.Join(ra, rb)
	rep.Migrations = migrations
	if bounded := s.boundedPairs(pairs, ra, rb); len(bounded) > 0 {
		rep.Pairs = slices.Clone(bounded)
	}
	for i := range rep.Pairs {
		p := &rep.Pairs[i]
		rep.In += int64(p.A.PktCnt)
		rep.Lost += p.Lost()
	}
	return rep, true
}

// delaysBetween appends to delays (which it empties first) the
// per-packet delays (nanoseconds, as float64 for the statistics layer)
// across seg for the packets its Down HOP claims and its Up HOP also
// sampled: Rb.Time − Ra.Time per common PktID (§4, Receipt-based
// Statistics), in Down's first-arrival order. Each sample thus
// contributes to exactly one scope's estimate.
func (s *checkScope) delaysBetween(seg Segment, delays []float64) []float64 {
	v := s.view
	claimed := s.claimed(seg.Down)
	wa, wb := v.indexFor(seg.Up), v.indexFor(seg.Down)
	delays = delays[:0]
	if !wa.hasSamples() || len(claimed) == 0 {
		return delays
	}
	// Without MarkerThreshold the marker/σ-sample split is unknown and
	// no sequential bias stream is collected — the same precondition
	// the batch CheckMarkerBias has.
	var c *seqArm
	if s.seq != nil && v.cfg.MarkerThreshold != 0 {
		c = s.seq
		c.items = c.items[:0]
	}
	delays = slices.Grow(delays, len(claimed))
	for _, pid := range claimed {
		if ta, ok := wa.timeOf(pid); ok {
			tb, _ := wb.timeOf(pid)
			d := float64(tb - ta)
			delays = append(delays, d)
			if c != nil {
				c.items = append(c.items, seqdetect.Evidence{
					Kind:  seqMarkerKind(pid, v.cfg.MarkerThreshold),
					Value: d,
				})
			}
		}
	}
	if c != nil {
		c.bias(seg.Up, seg.Down, seg.Name)
	}
	return delays
}

// domainReport estimates one domain segment's loss and delay.
func (s *checkScope) domainReport(seg Segment, qs []float64, confidence float64) (DomainReport, error) {
	rep := DomainReport{Name: seg.Name, Ingress: seg.Up, Egress: seg.Down}
	if seg.Partial {
		// ECMP branch/merge point: the two HOPs see different subsets
		// of the key's packets, so aggregate counts are not comparable
		// (see Segment.Partial). Delay estimates below still are.
		rep.PartialLoss = true
	} else {
		rep.Loss, _ = s.lossBetween(seg.Up, seg.Down)
	}
	delays := s.delaysBetween(seg, s.scratch.delays)
	s.scratch.delays = delays
	rep.DelaySamples = len(delays)
	if len(delays) > 0 {
		ests, err := s.scratch.bounds.QuantilesInPlace(delays, qs, confidence)
		if err != nil {
			return rep, err
		}
		rep.DelayEstimates = ests
	} else {
		rep.DelayEstimateErr = "no matched samples"
	}
	return rep, nil
}

// missingDetails renders the Detail strings of a link check's
// missing-record inconsistencies. Both are constants of (up, down), so
// each is formatted at most once per check, on first use, and shared by
// every missing packet's record.
type missingDetails struct {
	up, down             receipt.HOPID
	downstream, upstream string
}

func (d *missingDetails) missingDownstream() string {
	if d.downstream == "" {
		d.downstream = fmt.Sprintf("delivered by %v, unreported by %v", d.up, d.down)
	}
	return d.downstream
}

func (d *missingDetails) missingUpstream() string {
	if d.upstream == "" {
		d.upstream = fmt.Sprintf("reported received by %v, never reported delivered by %v", d.down, d.up)
	}
	return d.upstream
}

// expectedSampled reports whether HOP `other` (window oi) must have
// sampled packet id, given that the reporter (window ri) sampled it at
// t. It re-derives other's Algorithm 1 decision from the receipts:
// other decided id under the first marker it saw at or after id's
// arrival there, in [t+lo, t+hi] — [t, t+MaxDiff] downstream,
// [t−MaxDiff, t] upstream. A marker counts only if both ends reported
// it and its own crossing lies in [lo, hi], so neither end can name a
// marker the other never saw, or backdate one, to move a decision.
//
//   - The reporter's deciding marker M (its first at or after t): if
//     other never reported M, id is judged under M — a lost or hidden
//     marker excuses nothing; if M crossed infeasibly, id is not
//     expected, and M carries its own DelayBound violation.
//   - Otherwise id is expected only if SampleFcn selects it against
//     other's σ under every counted marker other saw from t+lo up to
//     the first one at or after t+hi: packets and markers that swapped
//     order, or a marker that overtook others (§5.3), excuse records
//     within MaxDiff of a marker.
//   - An epoch view whose other end holds no marker at or before t+lo
//     may miss the one that decided id (a sparse key's markers can be
//     epochs apart), so it expects nothing there unless it reaches the
//     stream head.
//
// Markers are always expected; without deployment constants everything
// is (correct when all HOPs share one rate).
func (s *checkScope) expectedSampled(ri, oi *window, other receipt.HOPID, lo, hi int64, id uint64) bool {
	mu := s.view.cfg.MarkerThreshold
	sigma, known := s.view.cfg.SampleThresholds[other]
	t, sampled := ri.timeOf(id)
	if mu == 0 || hashing.Exceeds(id, mu) || !known || !sampled {
		return true
	}
	selects := func(marker uint64) bool { return hashing.Exceeds(hashing.SampleFcn(id, marker), sigma) }
	// Ties on the timelines are broken by arrival order (stable sort).
	markers := ri.markerTimeline(mu)
	i := sort.Search(len(markers), func(i int) bool { return markers[i].TimeNS >= t })
	if i == len(markers) {
		// No marker followed: the reporter could not have sampled id
		// through Algorithm 1 either; don't expect it elsewhere.
		return false
	}
	m := markers[i]
	tm, ok := oi.timeOf(m.PktID)
	if !ok {
		return selects(m.PktID)
	}
	if d := tm - m.TimeNS; d < lo || d > hi {
		return false
	}
	theirs := oi.markerTimeline(mu) // holds M, at or after t+lo
	if !s.headComplete && theirs[0].TimeNS > t+lo {
		return false
	}
	for j := sort.Search(len(theirs), func(j int) bool { return theirs[j].TimeNS >= t+lo }); j < len(theirs); j++ {
		n := theirs[j]
		tr, ok := ri.timeOf(n.PktID)
		if d := n.TimeNS - tr; !ok || d < lo || d > hi {
			continue
		}
		if !selects(n.PktID) {
			return false
		}
		if n.TimeNS >= t+hi {
			return true
		}
	}
	return false
}
