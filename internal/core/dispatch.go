package core

import (
	"encoding/binary"

	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// This file is the collector's dispatch: the classification cache that
// resolves a packet to its path's state index, and the sub-batch that
// groups pending observations by path so each state is visited once.

// classifyCacheSize is the collector's direct-mapped classification
// cache: it short-circuits the two longest-prefix-match lookups and the
// key-index lookup for recently seen (source, destination) address
// pairs. Flows repeat addresses for many packets, but a direct-mapped
// cache lives and dies by conflict misses: with a few hundred live
// pairs, 512 slots still evict hot pairs into each other's slots often
// enough to put the LPM walk back on the per-packet profile. 4096 slots
// (128 KiB) keeps the conflict rate negligible at working sets into the
// low thousands of pairs. The size is fixed on purpose: a cache that
// grows on conflict re-misses its whole working set after every
// regrowth, which costs more than it saves at a few packets per key,
// and a 1024-slot cache, though faster on a 160-HOP mesh, shrinks the
// heap enough to pull the garbage collector into a fleet's timed
// phases.
const (
	classifyCacheBits = 12
	classifyCacheSize = 1 << classifyCacheBits
)

// classifySlot is the cache slot of the address pair src<<32 | dst: the
// top classifyCacheBits bits of the pair times 2^64/φ (Fibonacci
// hashing). That is one multiply and one shift per packet, where a
// 64-bit finalizer took five dependent steps before every probe, and
// the multiply carries every address bit into the top bits, so pairs
// that differ in one octet spread as a uniform hash would spread them
// (TestClassifyIndexSpreadsPairs).
func classifySlot(addrs uint64) uint64 { return addrs * 0x9e3779b97f4a7c15 >> (64 - classifyCacheBits) }

// noState is the state index of a classification entry that is not
// bound to a path state: the pair matched no prefix, or its path has
// none yet (first packet, or evicted since).
const noState = ^uint32(0)

// classifyEntry caches one address pair's classification outcome and,
// once a packet of the pair has been collected, where its path's state
// lives: a hit yields the path's index into the collector's state
// slices with no hashing of the path key. The index is an integer and
// the key is 10 bytes, so the entry is 32 bytes — two per cache line —
// and pointer-free: every HOP collector owns a table of them, and one
// holding a pointer to path state would be 128 KiB for the garbage
// collector to scan per HOP (TestClassifyEntrySize,
// TestDispatchScratchIsPointerFree).
type classifyEntry struct {
	addrs uint64         // packet src<<32 | dst
	key   packet.PathKey // the matched prefixes, valid only when ok
	state uint32         // the path's index, or noState
	valid bool
	ok    bool // false: pair matched no prefix (still cached)
}

// subBatchSize bounds the pending sub-batch: ObserveBatch processes it
// whenever it holds this many observations, however long the batch is.
// The scratch is therefore a fixed 11 KiB per collector — sized to the
// batch it would be 176 KiB at 4096 observations, per HOP — and
// ObserveBatch never allocates: there is no pool to miss and no
// warm-up before the steady state. Grouping 1024 or 4096 observations
// at a time visits each path's state less often still, but on a
// 160-HOP mesh that bought 5 % and nothing end to end for 4 and 16
// times the scratch on every HOP.
const subBatchSize = 256

// groupTableSize is the open-addressed state index → group table of a
// sub-batch: twice the most groups a sub-batch can hold, so probe
// sequences stay short when every observation is its own path.
const (
	groupTableBits = 9
	groupTableSize = 1 << groupTableBits
)

// Group numbers are stored as bytes and the table is never resized.
const (
	_ = uint(1<<8 - subBatchSize)
	_ = uint(groupTableSize - 2*subBatchSize)
)

// pathGroup is one path's share of a sub-batch.
type pathGroup struct {
	state uint32 // the path's index
	// n counts the group's records while the sub-batch fills; process
	// turns it into the group's write cursor in the scatter, which ends
	// on the group's end offset.
	n    uint16
	slot uint16 // the group's slot in the group table
}

// subBatch is a Collector's pending sub-batch: up to
// subBatchSize classified observations waiting to be grouped by path
// and run through Algorithms 1 and 2. The path states themselves live
// in the collector, so the sub-batch is pointer-free and the garbage
// collector never scans it.
type subBatch struct {
	// visits counts path-state visits (one per group per sub-batch).
	visits uint64

	// The pending observations in arrival order, each one's group, and
	// the groups in order of first appearance. current is the group of
	// the latest observation and currentState its path (noState while
	// the sub-batch is empty).
	nrecs, ngroups int
	currentState   uint32
	current        uint8
	recs           [subBatchSize]receipt.SampleRecord
	byPath         [subBatchSize]receipt.SampleRecord // recs, grouped by path
	groupOf        [subBatchSize]uint8
	groups         [subBatchSize]pathGroup
	table          [groupTableSize]uint16 // group number + 1; 0 is empty
}

// enter makes state's group the current one, opening it on the path's
// first observation in the pending sub-batch. ObserveBatch calls it
// only when the path changes.
func (s *subBatch) enter(state uint32) {
	// Fibonacci hashing: state indices are dense, and taken modulo the
	// table size they would sit in one long occupied stretch that every
	// colliding index then has to walk.
	h := state * 0x9e3779b1 >> (32 - groupTableBits)
	for {
		g := int(s.table[h]) - 1
		if g < 0 {
			g = s.ngroups
			s.ngroups++
			s.groups[g] = pathGroup{state: state, slot: uint16(h)}
			s.table[h] = uint16(g + 1)
		} else if s.groups[g].state != state {
			h = (h + 1) % groupTableSize
			continue
		}
		s.current, s.currentState = uint8(g), state
		return
	}
}

// push appends one observation of the current group's path to the
// pending sub-batch. The caller keeps nrecs below subBatchSize.
func (s *subBatch) push(digest uint64, tNS int64) {
	n := s.nrecs
	s.recs[n] = receipt.SampleRecord{PktID: digest, TimeNS: tNS}
	s.groupOf[n] = s.current
	s.groups[s.current].n++
	s.nrecs = n + 1
}

// process runs the pending sub-batch through Algorithm 1 and
// Algorithm 2 one path at a time: a stable counting scatter makes each
// path's observations contiguous, and each path's state is then visited
// once, its whole group run through both algorithms together
// (Collector.observePath). Within a path the
// observations stay in arrival order and paths share no state, so every
// path's state evolves exactly as the per-packet reference's would. A
// sub-batch of one path — every sub-batch of single-path traffic — is
// fed as it arrived.
//
// Before the algorithms run, one pass advances every group's J window
// to its first record, which the group's run would do first anyway
// (timestamps never decrease, so eviction done early changes nothing).
// The pass reads each group's hot entry, buffer header and buffer tail,
// a many-path sub-batch's cache misses; they are independent from group
// to group, so they overlap instead of each stalling its group's run.
func (s *subBatch) process(c *Collector) {
	recs, groups := s.recs[:s.nrecs], s.groups[:s.ngroups]
	if len(groups) > 1 {
		var off uint16
		for i := range groups {
			off, groups[i].n = off+groups[i].n, off
		}
		for i := range recs {
			g := &groups[s.groupOf[i]]
			s.byPath[g.n] = recs[i]
			g.n++
		}
		recs = s.byPath[:len(recs)]
		if c.windowNS > 0 {
			start := 0
			for i := range groups {
				state := groups[i].state
				c.evictWindow(&c.hot[state], c.recs[state], recs[start].TimeNS)
				start = int(groups[i].n)
			}
		}
	}
	start := 0
	for i := range groups {
		end := int(groups[i].n)
		c.observePath(groups[i].state, recs[start:end])
		start = end
		s.table[groups[i].slot] = 0
	}
	s.visits += uint64(len(groups))
	s.nrecs, s.ngroups, s.currentState = 0, 0, noState
}

// classify resolves a packet's path-state index through the
// direct-mapped cache. A miss falls back to the prefix table's
// longest-prefix match; an entry not bound to a state — fresh from the
// match, or unbound by an eviction — finds or creates it by key.
func (c *Collector) classify(pkt *packet.Packet) (state uint32, ok bool) {
	addrs := uint64(binary.BigEndian.Uint32(pkt.Src[:]))<<32 | uint64(binary.BigEndian.Uint32(pkt.Dst[:]))
	e := &c.cache[classifySlot(addrs)]
	if !e.valid || e.addrs != addrs {
		key, ok := c.cfg.Table.Classify(pkt)
		*e = classifyEntry{addrs: addrs, key: key, state: noState, valid: true, ok: ok}
	}
	if e.state == noState {
		if !e.ok {
			return 0, false
		}
		e.state = c.stateIndex(e.key)
	}
	return e.state, true
}
