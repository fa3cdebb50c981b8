package dissem

import (
	"bytes"
	"fmt"
	"sync"

	"vpm/internal/receipt"
)

// This file is the dissemination-layer half of the Byzantine HOP
// framework: attacks injected at the Server/Bus boundary, where a
// lying origin controls *delivery* of its receipts rather than their
// content. Signatures make content tampering by third parties
// impossible (Assumption 2), so the remaining attacks are the origin's
// own: withholding bundles, replaying stale epochs, and equivocating —
// serving different validly-signed bundles to different verifiers.
// Each is either directly detected (typed errors, equivocation proofs)
// or starves an epoch of its seal, which the windowed store surfaces
// as a never-Ready epoch naming the withholder (MissingSeals).

// BundleTamper intercepts every bundle a Server is about to serve.
// viewer identifies the requesting verifier ("" when the transport
// carries no identity); seq and epoch describe the retained bundle.
// Serve returns the bundle actually sent and true, or false to
// withhold it entirely. Implementations must be safe for concurrent
// use (HTTP handlers serve concurrently).
type BundleTamper interface {
	// Name identifies the tamper in reports and matrix rows.
	Name() string
	// Serve intercepts one bundle on its way to viewer.
	Serve(viewer string, seq, epoch uint64, sb SignedBundle) (SignedBundle, bool)
}

// SetTamper installs a BundleTamper on the server — simulation-side
// wiring for the dissemination attacks. A nil tamper restores honest
// service.
func (s *Server) SetTamper(t BundleTamper) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tamper = t
}

// SignedBundles returns the retained bundles exactly as they would be
// served to viewer (tamper applied, withheld bundles absent) — the raw
// material two verifiers exchange when cross-checking an origin for
// equivocation (FindEquivocation).
func (s *Server) SignedBundles(viewer string) []SignedBundle {
	_, served := s.serve(viewer, 0)
	out := make([]SignedBundle, len(served))
	for i, p := range served {
		out[i] = p.sb
	}
	return out
}

// Withholder withholds every bundle tagged with an epoch in
// [FromEpoch, ToEpoch) (ToEpoch = 0 means unbounded): the silent
// starvation attack. Nothing the consumer receives is wrong — the
// evidence is the absence itself, surfaced by the windowed store as an
// epoch that never seals, with MissingSeals naming this origin.
type Withholder struct {
	FromEpoch, ToEpoch uint64
}

// Name implements BundleTamper.
func (w *Withholder) Name() string { return "withhold-bundles" }

// Serve implements BundleTamper.
func (w *Withholder) Serve(_ string, _, epoch uint64, sb SignedBundle) (SignedBundle, bool) {
	if epoch >= w.FromEpoch && (w.ToEpoch == 0 || epoch < w.ToEpoch) {
		return SignedBundle{}, false
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
	stale *SignedBundle
}

// Name implements BundleTamper.
func (r *Replayer) Name() string { return "stale-epoch-replay" }

// Serve implements BundleTamper.
func (r *Replayer) Serve(_ string, _, epoch uint64, sb SignedBundle) (SignedBundle, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch < r.FromEpoch {
		cp := sb
		r.stale = &cp
		return sb, true
	}
	if r.stale == nil {
		return SignedBundle{}, false
	}
	return *r.stale, true
}

// Equivocator serves the honest payload to every viewer except Victim,
// who receives a mutated, re-signed variant — the cross-verifier
// equivocation attack. Only the origin itself can mount it (Signer is
// the origin's own key), and mounting it is self-destructive: the two
// variants are both validly signed by the same key, so any two
// verifiers comparing notes hold non-repudiable proof of the lie
// (FindEquivocation).
type Equivocator struct {
	// Signer is the origin's signing key, used to re-sign mutations.
	Signer *Signer
	// Victim is the viewer that receives the forged variant.
	Victim string
	// Mutate rewrites each decoded bundle of a payload served to the
	// victim.
	Mutate func(*Bundle)
}

// Name implements BundleTamper.
func (e *Equivocator) Name() string { return "equivocate" }

// Serve implements BundleTamper.
func (e *Equivocator) Serve(viewer string, _, _ uint64, sb SignedBundle) (SignedBundle, bool) {
	if viewer != e.Victim || e.Mutate == nil {
		return sb, true
	}
	bundles, err := DecodePayload(sb.Payload)
	if err != nil {
		return sb, true // not decodable: nothing to equivocate about
	}
	for _, b := range bundles {
		e.Mutate(b)
	}
	return e.Signer.Sign(bundles...), true
}

// Equivocation is non-repudiable proof that one origin served two
// different validly-signed bundles for the same sequence number.
type Equivocation struct {
	Origin receipt.HOPID
	Seq    uint64
	Epoch  uint64
	// A and B are the two contradictory signed bundles.
	A, B SignedBundle
}

// String renders the proof.
func (e Equivocation) String() string {
	return fmt.Sprintf("%v equivocated on bundle seq %d (epoch %d): two valid signatures over different payloads",
		e.Origin, e.Seq, e.Epoch)
}

// FindEquivocation cross-checks the signed bundles two verifiers
// collected from the same origin: bundles with the same sequence
// number whose payloads differ, while both signatures verify against
// the origin's registered key, are equivocation proofs — the origin
// signed two contradictory statements about the same interval, and no
// third party could have forged either. Bundles failing signature
// verification are ignored (they are ordinary forgeries, handled by
// transport authentication, not equivocation).
func FindEquivocation(reg Registry, origin receipt.HOPID, a, b []SignedBundle) []Equivocation {
	pub, ok := reg[origin]
	if !ok {
		return nil
	}
	bySeq := make(map[uint64]SignedBundle, len(a))
	for _, sb := range a {
		if bd, err := Verify(pub, origin, sb); err == nil {
			bySeq[bd.Seq] = sb
		}
	}
	var out []Equivocation
	for _, sb := range b {
		bd, err := Verify(pub, origin, sb)
		if err != nil {
			continue
		}
		other, ok := bySeq[bd.Seq]
		if !ok || bytes.Equal(other.Payload, sb.Payload) {
			continue
		}
		// The codec is canonical (one byte string per bundle), so two
		// valid payloads that differ in bytes differ in content.
		out = append(out, Equivocation{Origin: origin, Seq: bd.Seq, Epoch: bd.Epoch, A: other, B: sb})
	}
	return out
}
