// Package fleet splits the single-process measurement pipeline into a
// multi-process deployment: per-domain collector processes stream
// sealed, signed epochs over the dissemination plane to a
// horizontally sharded verifier tier, and a merge step recombines the
// shards' partial verdicts into union epoch reports byte-identical to
// a single process's at any shard count.
//
// The paper's §6 deployment story has per-domain monitors producing
// receipts and independent parties verifying them; this package is
// that story as processes. Three roles:
//
//   - Collector (one process per domain slice): simulates or observes
//     the shared world, runs the epoch pipeline for its own HOPs only,
//     and serves each domain's sealed epoch as one payload signed with
//     the domain's ed25519 key (§2.3: one key pair per domain).
//   - Verifier (N processes): fetches every domain's payloads with
//     bounded retry, keeps only the receipts whose traffic key it owns
//     under jump consistent hashing, and runs the indexed store +
//     rolling verifier over its key slice.
//   - Merge: concatenates the shards' disjoint per-key report
//     encodings and re-sorts into canonical order (MergeShardOutputs).
//
// Ownership is per traffic key, not per (HOP, key) pair: a verifier
// needs every HOP's receipts for a key to run the §4 link checks, so
// ownership hashes only the traffic key and a shard owns whole keys
// across all HOPs.
package fleet

import (
	"encoding/binary"
	"errors"
	"math"

	"vpm/internal/hashing"
	"vpm/internal/packet"
)

// Ring assigns traffic keys to verifier shards by Lamping & Veach's
// jump consistent hash ("A Fast, Minimal Memory, Consistent Hash
// Algorithm", 2014): each shard owns 1/n of the keys up to sampling
// noise, and widening the tier from n to n+1 shards moves only keys
// that land on the new shard. It holds nothing but the width, and it
// is deterministic: every process of the same build that builds a Ring
// for the same shard count computes the same ownership, which is what
// lets collectors stay ignorant of sharding entirely — routing happens
// at the consuming end.
type Ring struct {
	shards int64
}

// NewRing returns the ownership for n verifier shards, 1 <= n <=
// math.MaxInt32 (the jump loop's products stay inside an int64).
func NewRing(n int) (*Ring, error) {
	if n < 1 || n > math.MaxInt32 {
		return nil, errors.New("fleet: ring width outside [1, MaxInt32]")
	}
	return &Ring{shards: int64(n)}, nil
}

// OwnerKey returns the shard owning traffic key k. The key's binary
// fields are mixed to 64 bits, then the jump loop walks a
// linear-congruential sequence of ever larger candidate shards and
// returns the last one below the width. The sequence depends on the
// key alone, so a wider tier only ever appends shards to it. The
// reference loop divides in floating point; here the step is in
// integers, exact on every platform: the next candidate is
// ⌊(b+1)·2³¹ / d⌋ for d in [1, 2³¹], so it lies strictly above b, and
// it reaches the width exactly when (b+1)·2³¹ ≥ width·d, which the
// last step decides with a multiply instead of the division.
func (r *Ring) OwnerKey(k packet.PathKey) int {
	src := uint64(binary.BigEndian.Uint32(k.Src.Addr[:]))<<8 | uint64(k.Src.Bits)
	dst := uint64(binary.BigEndian.Uint32(k.Dst.Addr[:]))<<8 | uint64(k.Dst.Bits)
	h := hashing.Mix64(hashing.Mix64(src) ^ dst)
	var b int64
	for {
		h = h*2862933555777941757 + 1
		d := int64(h>>33) + 1
		if (b+1)<<31 >= r.shards*d {
			return int(b)
		}
		b = (b + 1) << 31 / d
	}
}
