package aggregation

import (
	"hash/maphash"
	"math/bits"

	"vpm/internal/hashing"
	"vpm/internal/receipt"
)

// This file implements the verifier-side partition algebra of §6: the
// join of two aggregate sets (the finest partition coarser than both)
// and the §6.3 patch-up transformation that migrates packets across
// cutting points using AggTrans windows when the two HOPs observed
// reordered streams.

// Pair is a joined aggregate: the combined receipts from the upstream
// HOP (A) and the downstream HOP (B) covering the same packet set.
type Pair struct {
	A, B receipt.AggReceipt
}

// Lost returns the packets lost between the two HOPs within this
// joined aggregate (negative if B somehow counted more, which an
// honest pair never does).
func (p Pair) Lost() int64 { return int64(p.A.PktCnt) - int64(p.B.PktCnt) }

// Joiner computes the §6 join of two HOPs' aggregate receipt sequences
// and applies the §6.3 patch-up to it. It keeps its working storage —
// one first-occurrence table and the pair slice — from call to call, so
// a verifier that joins every (key, adjacent HOP pair) of every epoch
// allocates only while that storage grows. The zero value is ready to
// use. A Joiner is not safe for concurrent use: each verifying
// goroutine owns its own.
type Joiner struct {
	// first holds the position of each ID's first occurrence in the
	// list being searched: the downstream sequence's aggregate First IDs
	// during the join, a downstream AggTrans window during the patch-up.
	first firstTable
	pairs []Pair
}

// firstTable is an open-addressed, pointer-free first-occurrence index
// over one list at a time. Its size is a power of two, at least twice
// the longest list it has indexed, and it only grows. A slot belongs to
// the current list only if it carries the current generation, so a new
// list starts by bumping gen; only a wrap to 0 clears the slots. The
// IDs are packet digests a lying HOP may choose, so the slot is a mix
// keyed by a random seed, drawn anew whenever the table grows: nobody
// can aim IDs at one slot.
type firstTable struct {
	slots []firstSlot
	seed  uint64
	gen   uint32
}

type firstSlot struct {
	id  uint64
	pos int32
	gen uint32 // 0 never is current: a zeroed slot is empty
}

// reset empties the table for a list of n IDs.
func (t *firstTable) reset(n int) {
	if size := max(2*n, 16); len(t.slots) < size {
		t.seed = maphash.Bytes(maphash.MakeSeed(), nil)
		//lint:ignore hotpath grow-only, to twice the longest list seen; later lists bump the generation
		t.slots = make([]firstSlot, 1<<bits.Len(uint(size-1)))
	}
	if t.gen++; t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
}

// add records pos as id's position unless id already has one.
func (t *firstTable) add(id uint64, pos int) {
	if s := t.slot(id); s.gen != t.gen {
		*s = firstSlot{id: id, pos: int32(pos), gen: t.gen}
	}
}

// find returns the position of id's first occurrence in the list.
func (t *firstTable) find(id uint64) (int, bool) {
	s := t.slot(id)
	return int(s.pos), s.gen == t.gen
}

// slot returns id's slot in the current list, or the empty slot where
// it would go.
func (t *firstTable) slot(id uint64) *firstSlot {
	mask := uint64(len(t.slots) - 1)
	for i := hashing.Mix64(id^t.seed) & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.gen != t.gen || s.id == id {
			return s
		}
	}
}

// Join computes the join of two aggregate receipt sequences and aligns
// it: it finds the cutting points common to both HOPs (aggregate
// First-packet IDs appearing in both sequences, in order), combines the
// receipts between consecutive common cuts — the finest partition over
// which the two HOPs' claims can be compared (§6.1–§6.2) — and then
// migrates packets the two HOPs saw on different sides of a common cut
// (§6.3). migrations counts the packets moved. Both steps look first
// occurrences up in the Joiner's one table, however short the list.
//
// Receipts must be in stream order and share each side's PathID
// traffic. Loss or extra cuts on either side merge away — exactly the
// graceful degradation §6.3 describes; a boundary whose combined
// receipts would mix PathIDs is skipped.
//
// The pairs are the Joiner's scratch, valid until its next call: a
// caller that keeps them copies them. Each combined receipt carries the
// AggTrans of the last receipt it combines (the only cutting point that
// survives the merge) by reference, not by copy; nothing writes through
// a Pair's AggTrans.
//
//vpm:hotpath
func (j *Joiner) Join(a, b []receipt.AggReceipt) (pairs []Pair, migrations int) {
	stale := len(j.pairs)
	j.join(a, b)
	// Pairs a longer previous call left beyond this one's are dropped,
	// references included, so the scratch pins no receipt windows beyond
	// the latest join's.
	if stale > len(j.pairs) {
		clear(j.pairs[len(j.pairs):stale])
	}
	return j.pairs, j.patchUp(j.pairs)
}

// join fills j.pairs with the join of a and b.
func (j *Joiner) join(a, b []receipt.AggReceipt) {
	j.pairs = j.pairs[:0]
	if len(a) == 0 || len(b) == 0 {
		return
	}
	// b's internal boundaries: First-packet ID -> aggregate index.
	j.first.reset(len(b))
	for k := 1; k < len(b); k++ {
		j.first.add(b[k].Agg.First, k)
	}
	ia, ib := 0, 0
	for i := 1; i < len(a); i++ {
		k, ok := j.first.find(a[i].Agg.First)
		// Not a common boundary, or one that would violate stream order
		// (duplicate digests): merge on.
		if ok && k > ib && j.appendPair(a[ia:i], b[ib:k]) {
			ia, ib = i, k
		}
	}
	j.appendPair(a[ia:], b[ib:])
}

// appendPair appends the pair combining as and bs, and reports false —
// appending nothing — when either side mixes PathIDs.
func (j *Joiner) appendPair(as, bs []receipt.AggReceipt) bool {
	j.pairs = append(j.pairs, Pair{})
	p := &j.pairs[len(j.pairs)-1]
	if !combine(&p.A, as) || !combine(&p.B, bs) {
		j.pairs = j.pairs[:len(j.pairs)-1]
		return false
	}
	return true
}

// combine fills the zero receipt *out with the ⊎ of rs
// (receipt.CombineAggregates): the union aggregate from the first
// receipt's First to the last one's Last, with the summed packet count
// and the last receipt's AggTrans, referenced rather than copied. It
// reports false when rs mixes PathIDs.
func combine(out *receipt.AggReceipt, rs []receipt.AggReceipt) bool {
	first, last := &rs[0], &rs[len(rs)-1]
	var n uint64
	for i := range rs {
		if rs[i].Path != first.Path {
			return false
		}
		n += rs[i].PktCnt
	}
	out.Path = first.Path
	out.Agg = receipt.AggID{First: first.Agg.First, Last: last.Agg.Last}
	out.PktCnt = n
	if len(last.AggTrans) > 0 {
		// Capped, so an append through the pair could never reach the
		// receipt's array.
		out.AggTrans = last.AggTrans[:len(last.AggTrans):len(last.AggTrans)]
	}
	return true
}

// patchUp applies the §6.3 migration to a joined sequence: for each
// internal boundary, it compares the two AggTrans windows and, for any
// packet that appears on different sides of the cutting point at the
// two HOPs, migrates B's count so that B's aggregates correspond to
// the same packet sets as A's. It returns the number of migrations
// performed. Pairs are modified in place.
//
// In the paper's example, HOP 1 observes 〈p3 p4 p5 p6〉 around the cut
// at p5 while HOP 4 observes 〈p2 p3 p5 p4〉: p4 moved across the cut,
// so the verifier migrates p4 from HOP 4's later aggregate into its
// earlier one.
func (j *Joiner) patchUp(pairs []Pair) int {
	migrations := 0
	for k := 0; k+1 < len(pairs); k++ {
		// The boundary after pair k is the First packet of pair k+1.
		cutID := pairs[k+1].A.Agg.First
		if cutID != pairs[k+1].B.Agg.First {
			// Join produced this boundary from a common cut; if the
			// sequences disagree the boundary isn't patchable.
			continue
		}
		wa, wb := pairs[k].A.AggTrans, pairs[k].B.AggTrans
		// Where each packet of B's window first appears, to tell on which
		// side of the cut B saw it.
		j.first.reset(len(wb))
		for i := range wb {
			j.first.add(wb[i].PktID, i)
		}
		posA, okA := indexOf(wa, cutID)
		posB, okB := j.first.find(cutID)
		if !okA || !okB {
			continue
		}
		for i := range wa {
			id := wa[i].PktID
			if id == cutID {
				continue
			}
			at, seen := j.first.find(id)
			if !seen {
				continue
			}
			beforeAtA, beforeAtB := i < posA, at < posB
			switch {
			case beforeAtA && !beforeAtB:
				// A says the packet belongs to the earlier aggregate;
				// B counted it in the later one. Migrate earlier.
				pairs[k].B.PktCnt++
				pairs[k+1].B.PktCnt--
				migrations++
			case !beforeAtA && beforeAtB:
				pairs[k].B.PktCnt--
				pairs[k+1].B.PktCnt++
				migrations++
			}
		}
	}
	return migrations
}

// indexOf returns the position of id's first occurrence in the window.
func indexOf(w []receipt.SampleRecord, id uint64) (int, bool) {
	for i := range w {
		if w[i].PktID == id {
			return i, true
		}
	}
	return 0, false
}

// Partition describes an abstract partition of a packet set as a list
// of aggregates (each a list of packet IDs). It exists to express the
// paper's Table 1 set algebra directly, for tests, documentation and
// the Table 1 experiment.
type Partition [][]uint64

// Coarser reports whether p ≥ q: every aggregate of p is a union of
// consecutive aggregates of q (the paper's "finer than" relation).
func (p Partition) Coarser(q Partition) bool {
	flatP := p.flatten()
	flatQ := q.flatten()
	if !equalU64(flatP, flatQ) {
		return false // not partitions of the same sequence
	}
	// Every cut of p must also be a cut of q.
	cutsQ := q.cutSet()
	for _, c := range p.cuts() {
		if !cutsQ[c] {
			return false
		}
	}
	return true
}

// JoinWith returns the join of p and q: the finest partition of the
// same packet sequence that is coarser than both — cut exactly at the
// common cutting points.
func (p Partition) JoinWith(q Partition) Partition {
	flat := p.flatten()
	cutsP := p.cutSet()
	cutsQ := q.cutSet()
	var out Partition
	var cur []uint64
	for i, id := range flat {
		if i > 0 && cutsP[id] && cutsQ[id] {
			out = append(out, cur)
			cur = nil
		}
		cur = append(cur, id)
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// Equal reports structural equality of two partitions.
func (p Partition) Equal(q Partition) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if !equalU64(p[i], q[i]) {
			return false
		}
	}
	return true
}

func (p Partition) flatten() []uint64 {
	var out []uint64
	for _, agg := range p {
		out = append(out, agg...)
	}
	return out
}

// cuts returns the first element of each aggregate after the first.
func (p Partition) cuts() []uint64 {
	var out []uint64
	for i := 1; i < len(p); i++ {
		if len(p[i]) > 0 {
			out = append(out, p[i][0])
		}
	}
	return out
}

func (p Partition) cutSet() map[uint64]bool {
	m := make(map[uint64]bool)
	for _, c := range p.cuts() {
		m[c] = true
	}
	return m
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
