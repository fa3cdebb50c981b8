package adversary

import (
	"sync"

	"vpm/internal/dissem"
)

// This file is dissemination: dissem.BundleTamper implementations a
// server installs (dissem.Server.SetTamper), where a lying origin
// controls *delivery* of its receipts rather than their content.
// Signatures make content tampering by third parties impossible
// (Assumption 2), so the remaining attacks are the origin's own:
// withholding bundles, replaying stale epochs, and equivocating —
// serving different validly-signed bundles to different verifiers.
// Each is either directly detected (typed errors, equivocation proofs)
// or starves an epoch of its seal, which the windowed store surfaces
// as a never-Ready epoch naming the withholder (MissingSeals).

// Withholder withholds every bundle tagged with an epoch in
// [FromEpoch, ToEpoch) (ToEpoch = 0 means unbounded): the silent
// starvation attack. Nothing the consumer receives is wrong — the
// evidence is the absence itself, surfaced by the windowed store as an
// epoch that never seals, with MissingSeals naming this origin.
type Withholder struct {
	FromEpoch, ToEpoch uint64
}

// Name implements dissem.BundleTamper.
func (w *Withholder) Name() string { return "withhold-bundles" }

// Serve implements dissem.BundleTamper.
func (w *Withholder) Serve(_ string, _, epoch uint64, sb dissem.SignedBundle) (dissem.SignedBundle, bool) {
	if epoch >= w.FromEpoch && (w.ToEpoch == 0 || epoch < w.ToEpoch) {
		return dissem.SignedBundle{}, false
	}
	return sb, true
}

// Replayer serves, in place of every bundle tagged epoch >= FromEpoch,
// the last bundle it saw from an earlier epoch — the stale-epoch
// replay attack. The replayed bundle is validly signed, so transport
// authentication passes; the receiver's windowed store refuses it with
// a StaleSealError (the origin already sealed that epoch), and the
// suppressed fresh epochs additionally surface as withheld.
type Replayer struct {
	FromEpoch uint64

	mu    sync.Mutex
	stale *dissem.SignedBundle
}

// Name implements dissem.BundleTamper.
func (r *Replayer) Name() string { return "stale-epoch-replay" }

// Serve implements dissem.BundleTamper.
func (r *Replayer) Serve(_ string, _, epoch uint64, sb dissem.SignedBundle) (dissem.SignedBundle, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch < r.FromEpoch {
		cp := sb
		r.stale = &cp
		return sb, true
	}
	if r.stale == nil {
		return dissem.SignedBundle{}, false
	}
	return *r.stale, true
}

// Equivocator serves the honest payload to every viewer except Victim,
// who receives a mutated, re-signed variant — the cross-verifier
// equivocation attack. Only the origin itself can mount it (Signer is
// the origin's own key), and mounting it is self-destructive: the two
// variants are both validly signed by the same key, so any two
// verifiers comparing notes hold non-repudiable proof of the lie
// (dissem.FindEquivocation).
type Equivocator struct {
	// Signer is the origin's signing key, used to re-sign mutations.
	Signer *dissem.Signer
	// Victim is the viewer that receives the forged variant.
	Victim string
	// Mutate rewrites each decoded bundle of a payload served to the
	// victim.
	Mutate func(*dissem.Bundle)
}

// Name implements dissem.BundleTamper.
func (e *Equivocator) Name() string { return "equivocate" }

// Serve implements dissem.BundleTamper.
func (e *Equivocator) Serve(viewer string, _, _ uint64, sb dissem.SignedBundle) (dissem.SignedBundle, bool) {
	if viewer != e.Victim || e.Mutate == nil {
		return sb, true
	}
	bundles, err := dissem.DecodePayload(sb.Payload)
	if err != nil {
		return sb, true // not decodable: nothing to equivocate about
	}
	for _, b := range bundles {
		e.Mutate(b)
	}
	return e.Signer.Sign(bundles...), true
}
