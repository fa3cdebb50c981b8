package dissem

import (
	"bytes"
	"fmt"

	"vpm/internal/receipt"
)

// This file is the dissemination seam of the threat model: a Server
// applies a BundleTamper to every bundle it serves, and the verifiers
// cross-check what each origin served them (FindEquivocation). The
// tampers themselves — withholding, stale-epoch replay, equivocation —
// live in internal/adversary, which no daemon links.

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
