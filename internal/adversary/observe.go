package adversary

import (
	"math"

	"vpm/internal/hashing"
	"vpm/internal/netsim"
	"vpm/internal/receipt"
	"vpm/internal/stats"
)

// This file is the data plane: netsim.Adversary implementations a HOP
// wears (netsim.Wear) between the simulator's replay and its
// collector, rewriting the observation stream the collector sees. A
// domain can manipulate what its own HOPs claim to have observed; it
// cannot touch what other HOPs observe, which is why every lie here
// surfaces as an inter-domain receipt inconsistency (or provably moves
// the estimate by less than sampling noise).

// DelayShaver is the delay-under-reporting lie worn at a domain's
// egress HOP: every observation is reported ShaveNS earlier than it
// happened, so the domain's ingress→egress delay looks ShaveNS
// smaller. The uniform shift preserves arrival order — the collector
// cannot tell — but the *inter-domain* link deltas to the downstream
// neighbor grow by the same ShaveNS, blowing past the advertised
// MaxDiff: the lie surfaces as DelayBound violations on the link the
// liar shares with the neighbor it implicated (§4 rule 2).
type DelayShaver struct {
	ShaveNS int64
}

// Name implements netsim.Adversary.
func (d *DelayShaver) Name() string { return "delay-underreport" }

// TamperBatch shifts every observation ShaveNS earlier, in place.
func (d *DelayShaver) TamperBatch(_ receipt.HOPID, batch []netsim.Observation) []netsim.Observation {
	for i := range batch {
		batch[i].TimeNS -= d.ShaveNS
	}
	return batch
}

// MarkerShaver is the marker-flip gaming lie: the one part of VPM's
// sample set a domain can predict at forwarding time is the marker set
// (µ is public), so a gaming egress HOP reports *markers* ShaveNS
// early while leaving the unpredictable σ-keyed samples honest. The
// per-link deltas of markers stay inside MaxDiff for modest shaves, so
// the §4 checks pass — but the marker vs σ-sample delay split is
// statistically impossible for a uniform hash subsample, and
// Verifier.CheckMarkerBias flags the domain (§5.1 extension).
type MarkerShaver struct {
	// Mu is the system-wide marker threshold (hashing.ThresholdForRate
	// of the marker rate).
	Mu uint64
	// ShaveNS is how much faster markers are claimed to transit.
	ShaveNS int64
}

// Name implements netsim.Adversary.
func (m *MarkerShaver) Name() string { return "marker-shave" }

// TamperBatch back-dates marker observation times in place. The
// stream order is left untouched — the gaming control plane rewrites
// the timestamp *field*, not the observation sequence — so the HOP's
// sampling decisions stay synchronized with its honest neighbors'
// (Algorithm 1 keys off marker arrival order) and the only trace of
// the lie is the statistically impossible marker-delay split.
func (m *MarkerShaver) TamperBatch(_ receipt.HOPID, batch []netsim.Observation) []netsim.Observation {
	for i := range batch {
		if hashing.Exceeds(batch[i].Digest, m.Mu) {
			batch[i].TimeNS -= m.ShaveNS
		}
	}
	return batch
}

// The adaptive adversaries are data-plane liars that tune their attack
// magnitude toward the verifier's noise floor instead of lying at a
// fixed size. A fixed-magnitude lie is the easy case — one epoch of
// evidence buries it. The adaptive strategies model the §2.1 rational
// attacker who knows the published detection thresholds: start loud
// (while the monitoring deployment is presumed cold), decay the
// magnitude exponentially toward a floor chosen to sit at or under the
// per-epoch batch tolerance, and optionally duty-cycle the lie on and
// off so no single epoch accumulates enough weight to cross a batch
// threshold. Per-epoch batch checks then go quiet — while a sequential
// detector, which accumulates log-likelihood across epochs and holds
// its gains at a reflecting floor through the off-phases, still
// crosses.
//
// All schedule decisions are functions of the observation timestamps
// (and, for suppression, the packet digest), never of wall clock or
// call count — the same replayed traffic yields the same corrupted
// receipts on every run, preserving the simulator's determinism
// contract.

// schedOrigin anchors an adversary's schedule at its first observed
// timestamp. factor returns the decayed fraction of the initial excess
// magnitude remaining at stream time t, in [0,1] — or 0 when the duty
// cycle is in an off-phase. halfLifeNS zero disables decay; periodNS
// zero (or duty >= 1) means always on, duty <= 0 with a period means
// always off; duty cycles gate the lie on for the first duty fraction
// of each period.
type schedOrigin struct {
	startNS int64
	started bool
}

func (a *schedOrigin) factor(tNS, halfLifeNS, periodNS int64, duty float64) float64 {
	if !a.started {
		a.startNS, a.started = tNS, true
	}
	el := tNS - a.startNS
	if el < 0 {
		el = 0
	}
	if periodNS > 0 {
		if duty <= 0 {
			return 0
		}
		if duty < 1 && float64(el%periodNS) >= duty*float64(periodNS) {
			return 0
		}
	}
	if halfLifeNS <= 0 {
		return 1
	}
	return math.Exp2(-float64(el) / float64(halfLifeNS))
}

// AdaptiveShaver is the delay-under-reporting lie with a rational
// schedule: the shave starts at InitialShaveNS and decays toward
// FloorNS — pick the floor at or below the per-epoch batch tolerance
// (MaxDiff headroom over the honest delta) and the batch DelayBound
// check goes quiet after the loud opening, while the sequential delay
// detector keeps integrating the floor-sized shift. A duty cycle
// models the on/off attacker probing for detector resets.
type AdaptiveShaver struct {
	// InitialShaveNS is the opening magnitude; FloorNS the asymptote.
	InitialShaveNS int64
	FloorNS        int64
	// HalfLifeNS, PeriodNS, Duty: see schedOrigin.factor.
	HalfLifeNS int64
	PeriodNS   int64
	Duty       float64

	sched schedOrigin
}

// Name implements netsim.Adversary.
func (a *AdaptiveShaver) Name() string { return "adaptive-shave" }

// ShaveAt reports the shave magnitude in effect at stream time tNS —
// exported so experiments can log the schedule they simulated.
func (a *AdaptiveShaver) ShaveAt(tNS int64) int64 {
	f := a.sched.factor(tNS, a.HalfLifeNS, a.PeriodNS, a.Duty)
	if f == 0 {
		return 0
	}
	return a.FloorNS + int64(f*float64(a.InitialShaveNS-a.FloorNS))
}

// TamperBatch shifts each observation earlier by the scheduled shave
// at its own timestamp. The shave shrinks monotonically within a
// batch's on-phase, which can only widen gaps, never reorder; an
// off-phase edge inside a batch could locally swap arrivals, so the
// batch is re-sorted when an edge was crossed.
func (a *AdaptiveShaver) TamperBatch(_ receipt.HOPID, batch []netsim.Observation) []netsim.Observation {
	reorder := false
	var prev int64
	for i := range batch {
		t := batch[i].TimeNS - a.ShaveAt(batch[i].TimeNS)
		if i > 0 && t < prev {
			reorder = true
		}
		batch[i].TimeNS, prev = t, t
	}
	if reorder {
		sortObservations(batch)
	}
	return batch
}

// AdaptiveSuppressor is the observation-suppression lie on the same
// rational schedule: the drop probability decays from InitialFraction
// toward FloorFraction — pick the floor at or under the verifier's
// missing-record tolerance (reorder-noise absorption, §5.3) and the
// per-epoch batch judgment absorbs every epoch's drops as noise, while
// the sequential Bernoulli detector accumulates the drop trials across
// epochs. Drop decisions hash the packet digest, so they are
// per-packet deterministic and independent of batch chunking.
type AdaptiveSuppressor struct {
	InitialFraction float64
	FloorFraction   float64
	// HalfLifeNS, PeriodNS, Duty: see schedOrigin.factor.
	HalfLifeNS int64
	PeriodNS   int64
	Duty       float64
	// Seed drives the per-packet drop decisions.
	Seed uint64

	sched schedOrigin
}

// Name implements netsim.Adversary.
func (a *AdaptiveSuppressor) Name() string { return "adaptive-suppress" }

// FractionAt reports the drop probability in effect at stream time
// tNS.
func (a *AdaptiveSuppressor) FractionAt(tNS int64) float64 {
	f := a.sched.factor(tNS, a.HalfLifeNS, a.PeriodNS, a.Duty)
	if f == 0 {
		return 0
	}
	return a.FloorFraction + f*(a.InitialFraction-a.FloorFraction)
}

// TamperBatch filters the batch in place. Each packet's drop decision
// is a digest-keyed coin at the scheduled fraction for its timestamp.
func (a *AdaptiveSuppressor) TamperBatch(_ receipt.HOPID, batch []netsim.Observation) []netsim.Observation {
	out := batch[:0]
	for _, o := range batch {
		frac := a.FractionAt(o.TimeNS)
		if frac > 0 && stats.NewRNG(o.Digest^a.Seed).Float64() < frac {
			continue
		}
		out = append(out, o)
	}
	return out
}

// sortObservations time-orders a batch in place (insertion sort: the
// batches are nearly sorted — at most one duty-cycle edge out of
// place).
func sortObservations(batch []netsim.Observation) {
	for i := 1; i < len(batch); i++ {
		for j := i; j > 0 && batch[j].TimeNS < batch[j-1].TimeNS; j-- {
			batch[j], batch[j-1] = batch[j-1], batch[j]
		}
	}
}
