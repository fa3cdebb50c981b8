package baseline

import (
	"vpm/internal/hashing"
	"vpm/internal/packet"
	"vpm/internal/stats"
)

// TrajectorySampling is one HOP's §3.2 "Trajectory Sampling ++"
// monitor: a packet is sampled iff its digest exceeds a threshold —
// decidable the instant the packet is observed, which is precisely the
// protocol's flaw: a domain can recognize measured packets while they
// are still in its queues and treat them preferentially.
type TrajectorySampling struct {
	threshold uint64
	Records   []StrawmanRecord
	observed  uint64
}

// NewTrajectorySampling builds a monitor sampling at the given rate.
func NewTrajectorySampling(rate float64) *TrajectorySampling {
	return &TrajectorySampling{threshold: hashing.ThresholdForRate(rate)}
}

// Sampled reports whether a digest is sampled — the predicate an
// adversarial domain evaluates at forwarding time to bias its
// treatment (wire it into netsim.DomainSpec.Preferential).
func (t *TrajectorySampling) Sampled(digest uint64) bool {
	return hashing.Exceeds(digest, t.threshold)
}

// Observe implements netsim.Observer.
func (t *TrajectorySampling) Observe(_ *packet.Packet, digest uint64, tNS int64) {
	t.observed++
	if t.Sampled(digest) {
		t.Records = append(t.Records, StrawmanRecord{PktID: digest, TimeNS: tNS})
	}
}

// TSPPEstimate is the performance estimate a TS++ verifier computes
// for a domain from its two monitors' receipts.
type TSPPEstimate struct {
	// SampledIn / SampledOut are the matched sample populations.
	SampledIn, SampledOut int
	// LossRate is the estimated loss (1 - out/in over samples), with
	// a Wilson confidence interval.
	LossRate       float64
	LossLo, LossHi float64
	// DelaysNS are the per-sampled-packet delays, from which the
	// verifier estimates quantiles (see internal/quantile).
	DelaysNS []float64
}

// TSPPCompare estimates loss and delay between two TS++ monitors from
// their sampled records (§3.2's computability property: both loss and
// delay quantiles are estimable — it is verifiability that fails).
func TSPPCompare(up, down *TrajectorySampling, confidence float64) TSPPEstimate {
	downTime := make(map[uint64]int64, len(down.Records))
	for _, r := range down.Records {
		downTime[r.PktID] = r.TimeNS
	}
	est := TSPPEstimate{SampledIn: len(up.Records)}
	for _, r := range up.Records {
		td, ok := downTime[r.PktID]
		if !ok {
			continue
		}
		est.SampledOut++
		est.DelaysNS = append(est.DelaysNS, float64(td-r.TimeNS))
	}
	if est.SampledIn > 0 {
		est.LossRate = 1 - float64(est.SampledOut)/float64(est.SampledIn)
		lostLo, lostHi := stats.WilsonInterval(est.SampledIn-est.SampledOut, est.SampledIn, confidence)
		est.LossLo, est.LossHi = lostLo, lostHi
	}
	return est
}
