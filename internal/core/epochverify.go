package core

import (
	"fmt"

	"vpm/internal/aggregation"
	"vpm/internal/packet"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
	"vpm/internal/seqdetect"
)

// This file implements the per-epoch (scoped) forms of the §4 link
// check and the per-domain estimates that rolling verification runs as
// each interval seals.
//
// Per-epoch verification cannot simply run CheckLink over one epoch's
// receipts: receipts for the same packet legitimately seal in adjacent
// epochs at different HOPs. A sample is sealed in the epoch of its
// *deciding marker* (Algorithm 1 decides a packet only when the next
// marker arrives), and the same marker crosses each HOP at a slightly
// different local time; likewise an aggregate seals where its cutting
// point lands. The skew is bounded by one interval (marker transit and
// propagation delay are far below any sane epoch length), so the
// scoped check works on two scopes:
//
//   - claims — the receipts sealed in the target epoch: the records
//     this epoch's report vouches for, each attributed to exactly one
//     epoch;
//   - evidence — the ±1-epoch view around the target, which contains
//     the counterpart records of every claim.
//
// Missing-record judgments iterate the claims but match against the
// evidence, so boundary spill never reads as a lie, while every record
// is still judged exactly once — in the epoch that sealed it.
// Aggregate counts are compared only over regions bounded by cutting
// points common to both ends within the evidence window (Join's
// half-open edge regions are trimmed); the untrimmed full-stream
// comparison is exactly the batch verdict, which continuous operation
// reproduces byte-for-byte when epochs are unioned
// (TestBatchContinuousEquivalence).

// epochScope bundles the two scopes of one epoch's verification.
type epochScope struct {
	view   *Verifier // evidence: ±1-epoch window, configured
	claims *ReceiptStore
	// headComplete reports that the view's lower edge is the true
	// stream start (epoch 0 is inside the view): nothing precedes the
	// first joined pair, so no patch-up evidence is missing at its
	// leading boundary and the head region may be compared.
	headComplete bool
	// tailComplete reports that nothing exists beyond the view's upper
	// edge (the stream finished at or inside it), so Join's tail
	// region is bounded and may be compared.
	tailComplete bool
	// seq, when non-nil, captures per-packet evidence for the
	// sequential arm (see seqarm.go). The checks only append to it;
	// the rolling verifier feeds it to the engine after the parallel
	// sweep, in deterministic work order.
	seq *seqCollector
}

// epochLinkCheck is the scoped §4 link check: MaxDiff agreement, the
// timestamp bound and missing-record checks for the packets claimed in
// the target epoch, and aggregate-count equality over commonly-bounded
// regions of the evidence window.
func (s *epochScope) epochLinkCheck(key packet.PathKey, linkID int, up, down receipt.HOPID) LinkVerdict {
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

	cuUniq, _ := s.claims.lookup(up, key).snapshot()
	cdUniq, _ := s.claims.lookup(down, key).snapshot()
	_, su := iu.snapshot()
	_, sd := id.snapshot()
	// The sequential arm's trial streams, in claims order: linkItems
	// interleaves keep/drop Bernoulli trials with matched link deltas
	// (one mixed slice serves both the loss and the delay detector —
	// each skips the other's kinds); fabItems is the mirror-direction
	// trial stream over the downstream HOP's claims.
	var linkItems, fabItems []seqdetect.Evidence
	detail := missingDetails{up: up, down: down}
	var missingDown, missingUp []receipt.Inconsistency
	for _, pid := range cuUniq {
		tu := su[pid]
		td, ok := sd[pid]
		if !ok {
			if v.expectedSampled(iu, down, pid) {
				missingDown = append(missingDown, receipt.Inconsistency{
					Kind:   receipt.MissingDownstream,
					PktID:  pid,
					Detail: detail.missingDownstream(),
				})
				if s.seq != nil {
					linkItems = append(linkItems, seqdetect.Evidence{Kind: seqdetect.KindDrop})
				}
			}
			continue
		}
		lv.MatchedSamples++
		delta := td - tu
		if s.seq != nil {
			linkItems = append(linkItems,
				seqdetect.Evidence{Kind: seqdetect.KindKeep},
				seqdetect.Evidence{Kind: seqdetect.KindDelta, Value: float64(delta)})
		}
		if delta > maxDiff {
			lv.Violations = append(lv.Violations, receipt.Inconsistency{
				Kind:   receipt.DelayBound,
				PktID:  pid,
				Detail: fmt.Sprintf("link delta %dns exceeds MaxDiff %dns", delta, maxDiff),
			})
		}
	}
	for _, pid := range cdUniq {
		if _, ok := su[pid]; !ok {
			if v.expectedSampled(id, up, pid) {
				missingUp = append(missingUp, receipt.Inconsistency{
					Kind:   receipt.MissingUpstream,
					PktID:  pid,
					Detail: detail.missingUpstream(),
				})
				if s.seq != nil {
					fabItems = append(fabItems, seqdetect.Evidence{Kind: seqdetect.KindDrop})
				}
			}
		} else if s.seq != nil {
			fabItems = append(fabItems, seqdetect.Evidence{Kind: seqdetect.KindKeep})
		}
	}
	if s.seq != nil {
		sc := seqLinkScope(key, up, down)
		s.seq.add(sc, seqdetect.ClassLoss, linkItems)
		s.seq.add(sc, seqdetect.ClassDelay, linkItems)
		s.seq.add(sc, seqdetect.ClassFabricate, fabItems)
	}
	lv.MissingDown, lv.MissingUp = len(missingDown), len(missingUp)
	// Symmetric §5.3 reorder noise at epoch granularity, absorbed by
	// the same rule the batch CheckLink applies (absorbSymmetricNoise);
	// asymmetric excess — real loss or lies — keeps its full weight
	// (TestRollingVerifierFlagsFaultyLink).
	tol := v.missingTolerance(lv.MatchedSamples)
	judgeDown, judgeUp := absorbSymmetricNoise(lv.MissingDown, lv.MissingUp, v.reorderNoiseFloor(up, down))
	if judgeDown > tol {
		lv.Violations = append(lv.Violations, missingDown...)
	}
	if judgeUp > tol {
		lv.Violations = append(lv.Violations, missingUp...)
	}

	if ra, rb := iu.aggReceipts(), id.aggReceipts(); len(ra) > 0 && len(rb) > 0 {
		pairs := aggregation.JoinAligned(ra, rb)
		for _, p := range s.boundedPairs(pairs, ra, rb) {
			lv.Violations = append(lv.Violations, receipt.CheckAggPair(p.A, p.B)...)
		}
	}
	return lv
}

// boundedPairs trims a joined sequence to the pairs whose packet
// regions can actually be judged inside the evidence window:
//
//   - Interior pairs — bounded by cutting points common to both HOPs,
//     with a preceding pair in view — are always comparable: PatchUp
//     already migrated reordered packets across both of their
//     boundaries.
//   - The head pair is comparable only when the view reaches the true
//     stream start AND both sequences begin at the same packet;
//     otherwise its leading boundary's patch-up evidence (the AggTrans
//     of the preceding, out-of-view aggregate) is missing and a few
//     legitimately migrated packets would read as a count lie.
//   - The tail pair is comparable only when nothing beyond the view
//     can extend either sequence (stream finished inside the window).
//
// Half-open edge regions compare receipts for different packet sets —
// seal-epoch skew, not lies — and are left to the reports whose view
// does bound them; the union-of-epochs batch check remains the
// complete backstop.
func (s *epochScope) boundedPairs(pairs []aggregation.Pair, a, b []receipt.AggReceipt) []aggregation.Pair {
	lo, hi := 0, len(pairs)
	if !s.headComplete || a[0].Agg.First != b[0].Agg.First {
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

// epochDomainReport estimates one domain's loss and delay for the
// target epoch: delays from the samples the egress HOP sealed in it
// (each sample contributes to exactly one epoch's estimate), loss from
// the commonly-bounded joined aggregates of the evidence window.
func (s *epochScope) epochDomainReport(key packet.PathKey, seg Segment, qs []float64, confidence float64) (DomainReport, error) {
	v := s.view
	rep := DomainReport{Name: seg.Name, Ingress: seg.Up, Egress: seg.Down}

	if seg.Partial {
		// ECMP branch/merge point: the two HOPs see different subsets
		// of the key's packets, so aggregate counts are not comparable
		// (see Segment.Partial). Delay estimates below still are.
		rep.PartialLoss = true
	} else if ra, rb := v.indexFor(seg.Up).aggReceipts(), v.indexFor(seg.Down).aggReceipts(); len(ra) > 0 && len(rb) > 0 {
		pairs := aggregation.Join(ra, rb)
		mig := aggregation.PatchUp(pairs)
		bounded := s.boundedPairs(pairs, ra, rb)
		rep.Loss = LossReport{Pairs: bounded, Migrations: mig}
		for _, p := range bounded {
			rep.Loss.In += int64(p.A.PktCnt)
			rep.Loss.Lost += p.Lost()
		}
	}

	cdUniq, _ := s.claims.lookup(seg.Down, key).snapshot()
	_, si := v.indexFor(seg.Up).snapshot()
	_, se := v.indexFor(seg.Down).snapshot()
	var delays []float64
	var biasItems []seqdetect.Evidence
	// Without MarkerThreshold the marker/σ-sample split is unknown and
	// no sequential bias stream is collected — the same precondition
	// the batch CheckMarkerBias has.
	collectBias := s.seq != nil && v.cfg.MarkerThreshold != 0
	for _, pid := range cdUniq {
		if ti, ok := si[pid]; ok {
			d := float64(se[pid] - ti)
			delays = append(delays, d)
			if collectBias {
				biasItems = append(biasItems, seqdetect.Evidence{
					Kind:  seqMarkerKind(pid, v.cfg.MarkerThreshold),
					Value: d,
				})
			}
		}
	}
	if collectBias {
		s.seq.add(seqDomainScope(key, seg), seqdetect.ClassBias, biasItems)
	}
	rep.DelaySamples = len(delays)
	if len(delays) > 0 {
		ests, err := quantile.Quantiles(delays, qs, confidence)
		if err != nil {
			return rep, err
		}
		rep.DelayEstimates = ests
	} else {
		rep.DelayEstimateErr = "no matched samples"
	}
	return rep, nil
}
