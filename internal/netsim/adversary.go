package netsim

import (
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
)

// This file is the data-plane seam of the threat model: an Adversary
// a HOP "wears" between the simulator's replay and the HOP's
// collector, rewriting the observation stream the collector sees. The
// paper's threat model (§2.1, §3) allows a domain to manipulate what
// its own HOPs claim to have observed — it cannot touch what *other*
// HOPs observe, which is exactly why every lie surfaces as an
// inter-domain receipt inconsistency (or provably moves the estimate
// by less than sampling noise). The attacks live in internal/adversary
// beside the control-plane (core.EpochSink) and dissemination
// (dissem.BundleTamper) ones; Suppressor stays here only because the
// benchmark names it (ROADMAP item 3).

// Adversary rewrites the observation stream of one HOP. TamperBatch
// receives each arrival-ordered batch before the HOP's collector and
// returns what the corrupted HOP records instead: entries may be
// dropped, timestamps rewritten, or observations injected. The
// returned batch must be time-ordered (resort after non-uniform time
// edits) and, like the input, is only valid for the duration of the
// call. Batches arrive from a single goroutine per HOP, in arrival
// order, so stateful adversaries need no locking for per-HOP state.
type Adversary interface {
	// Name identifies the adversary in reports and matrix rows.
	Name() string
	// TamperBatch rewrites one observation batch of the given HOP.
	TamperBatch(hop receipt.HOPID, batch []Observation) []Observation
}

// wornObserver feeds every observation through an Adversary before the
// wrapped observer sees it.
type wornObserver struct {
	hop receipt.HOPID
	adv Adversary
	obs Observer
}

// Wear wraps obs so that every observation of hop passes through adv
// first — the HOP now wears the adversary. The wrapper preserves the
// batch fast path (the tampered batch is delivered through
// ObserveBatch when obs supports it) and the single-goroutine replay
// discipline, so determinism is unchanged: the same traffic yields the
// same corrupted receipts on every run.
func Wear(hop receipt.HOPID, adv Adversary, obs Observer) Observer {
	if adv == nil {
		return obs
	}
	return &wornObserver{hop: hop, adv: adv, obs: obs}
}

// Observe funnels a single observation through the batch hook.
func (w *wornObserver) Observe(pkt *packet.Packet, digest uint64, tNS int64) {
	batch := w.adv.TamperBatch(w.hop, []Observation{{Pkt: pkt, Digest: digest, TimeNS: tNS}})
	Deliver(w.obs, batch)
}

// ObserveBatch tampers one arrival-ordered batch and forwards the
// result.
func (w *wornObserver) ObserveBatch(batch []Observation) {
	if out := w.adv.TamperBatch(w.hop, batch); len(out) > 0 {
		Deliver(w.obs, out)
	}
}

// Suppressor is the observation-suppression lie, worn at an ingress
// HOP: a deterministic fraction of arriving packets is simply never
// recorded — the domain pretends they did not arrive, shrinking both
// its sample receipts and its aggregate counts. The upstream
// neighbor's egress receipts still claim the deliveries, so the lie
// surfaces on the upstream link as missing-downstream records and
// aggregate count mismatches.
type Suppressor struct {
	// Fraction of observations to suppress, in [0,1].
	Fraction float64
	// Seed drives the deterministic drop decisions.
	Seed uint64

	rng *stats.RNG
}

// Name implements Adversary.
func (s *Suppressor) Name() string { return "suppress-observations" }

// TamperBatch filters the batch in place.
func (s *Suppressor) TamperBatch(_ receipt.HOPID, batch []Observation) []Observation {
	if s.rng == nil {
		s.rng = stats.NewRNG(s.Seed ^ 0x5e1ec7ed)
	}
	out := batch[:0]
	for _, o := range batch {
		if s.rng.Bool(s.Fraction) {
			continue
		}
		out = append(out, o)
	}
	return out
}
