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
//     on the consistent-hash ring, and runs the indexed store +
//     rolling verifier over its key slice.
//   - Merge: concatenates the shards' disjoint per-key report
//     encodings and re-sorts into canonical order (MergeShardOutputs).
//
// Ownership is per traffic key, not per (HOP, key) pair: a verifier
// needs every HOP's receipts for a key to run the §4 link checks, so
// the ring hashes only the traffic key and a shard owns whole keys
// across all HOPs.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"

	"vpm/internal/packet"
)

// ringVnodes is the number of virtual nodes per shard. 64 keeps the
// largest/smallest shard load within a few percent of even at the
// shard counts a fleet runs (single digits to low hundreds) while the
// ring stays small enough to rebuild on every membership change.
const ringVnodes = 64

// Ring is a consistent-hash ring assigning traffic keys to verifier
// shards. It is deterministic: every process that builds a Ring for
// the same shard count computes the same ownership, which is what lets
// collectors stay ignorant of sharding entirely — routing happens at
// the consuming end.
type Ring struct {
	shards int
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard int
}

// mix64 is the splitmix64 finalizer. FNV-1a alone places similar
// inputs (consecutive vnode labels, keys differing in one octet) at
// nearby ring positions, which clusters ownership badly; the finalizer
// restores avalanche so the ring spreads evenly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewRing builds the ring for n verifier shards (n >= 1).
func NewRing(n int) (*Ring, error) {
	if n < 1 {
		return nil, fmt.Errorf("fleet: ring needs at least 1 shard, got %d", n)
	}
	r := &Ring{shards: n, points: make([]ringPoint, 0, n*ringVnodes)}
	for s := 0; s < n; s++ {
		for v := 0; v < ringVnodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "vpm-fleet-shard-%d-vnode-%d", s, v)
			r.points = append(r.points, ringPoint{hash: mix64(h.Sum64()), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// OwnerKey returns the shard owning traffic key k: the first ring
// point at or after the key's hash, wrapping at the top.
func (r *Ring) OwnerKey(k packet.PathKey) int {
	if r.shards == 1 {
		return 0
	}
	var buf [57]byte
	h := fnv.New64a()
	h.Write(k.AppendText(buf[:0]))
	kh := mix64(h.Sum64())
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}
