package core

import (
	"vpm/internal/receipt"
)

// This file implements the lying-domain strategies of the threat model
// (§2.1): domains that construct receipts from incomplete or
// fabricated information to exaggerate their performance. Each
// strategy is a transformation over honest receipts — what a lying
// control plane would emit instead of the truth. The verifier tests
// then show each lie either surfacing as an inter-domain inconsistency
// that exposes the liar to the neighbor it implicates, or requiring a
// colluder to absorb the blame (§3.1).

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
