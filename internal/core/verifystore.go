package core

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"vpm/internal/hashing"
	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// leaf is the one receipt index: traffic key → the few HOPs that
// reported it, each with what it reported, chained (pathIndex.next) in
// the order their first receipt for the key arrived — a handful even
// on a mesh, so finding a HOP is a short walk, not a second map. A
// WindowedStore holds one per key partition of each epoch (see
// epochLeaf); a hand-fed Verifier holds one that grows as receipts
// arrive.
//
// Beyond the raw samples, each (HOP, key) index maintains two derived
// views:
//
//   - the deduplicated packet order (first-arrival order of distinct
//     PktIDs), which makes every verifier iteration deterministic
//     instead of following Go map order;
//   - the marker timeline (time-sorted samples whose digest exceeds
//     the system-wide µ, built on first use and cached), which turns
//     the Algorithm 1 re-derivation in missing-record checks from a
//     scan over all of a HOP's samples into a binary search.
type leaf map[packet.PathKey]*pathIndex

// of returns what hop reported about the key whose chain starts at pi,
// or nil.
func (pi *pathIndex) of(hop receipt.HOPID) *pathIndex {
	found, _ := pi.find(hop)
	return found
}

// find walks the chain from pi to hop's index; when hop is not on it,
// it returns nil and the chain's last index (nil for an empty chain).
func (pi *pathIndex) find(hop receipt.HOPID) (found, last *pathIndex) {
	for ; pi != nil; pi = pi.next {
		if pi.hop == hop {
			return pi, nil
		}
		last = pi
	}
	return nil, last
}

// delivery is what one HOP handed over for an epoch: its receipts,
// each list PathID-sorted as a collector drains them, and, once the HOP
// sealed it into a WindowedStore, runs — its key runs (see findRuns);
// nil until then.
type delivery struct {
	hop     receipt.HOPID
	samples []receipt.SampleReceipt
	aggs    []receipt.AggReceipt
	runs    []keyRun
}

// keyFilter selects the traffic keys one add files: those of key
// partition part of parts (every key when parts ≤ 1) and, when only is
// set, that key alone.
type keyFilter struct {
	only        *packet.PathKey
	part, parts int
}

// fineBuckets is how many fine buckets a fixed hash of the PathKey
// spreads keys over; a key partition is a range of consecutive fine
// buckets, so a run's fine bucket, found once, places it for any
// partition count.
const fineBuckets = 256

// fineOf returns key's fine bucket — the top byte of a fixed hash of
// the key, so a partition's keys do not depend on which receipts arrive
// or who indexes them.
func fineOf(key packet.PathKey) uint8 {
	src, dst := &key.Src.Addr, &key.Dst.Addr
	x := uint64(src[0])<<56 | uint64(src[1])<<48 | uint64(src[2])<<40 | uint64(src[3])<<32 |
		uint64(dst[0])<<24 | uint64(dst[1])<<16 | uint64(dst[2])<<8 | uint64(dst[3])
	return uint8(hashing.Mix64(x^uint64(key.Src.Bits)<<8^uint64(key.Dst.Bits)) >> 56)
}

// partOf returns the partition of parts that key belongs to.
func partOf(key packet.PathKey, parts int) int { return fineToPart(int(fineOf(key)), parts) }

// fineToPart returns the partition of parts that fine bucket b belongs
// to: partition p holds the buckets from firstFine(p, parts) up to, not
// including, firstFine(p+1, parts).
func fineToPart(b, parts int) int { return b * parts / fineBuckets }

func firstFine(p, parts int) int { return (p*fineBuckets + parts - 1) / parts }

// leafSlab is what one add call cuts the index values it creates from:
// one allocation per kind, sized by its first pass (runs). A slab lives
// as long as anything cut from it — for a sealed epoch's key partition,
// as long as its segment.
type leafSlab struct {
	paths   []pathIndex
	samples []sampleIndex
	recs    []receipt.SampleRecord // sampleIndex.add's sorted batches
	ids     []uint64               // sampleIndex.add's first arrivals
}

// cut takes the next n values off the front of *slab as a capped
// three-index slice, so a later append — a second receipt for the same
// (HOP, key) — reallocates instead of reaching a neighbour. A slab the
// count left short yields a fresh slice.
func cut[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		return make([]T, n)
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// keyRun is one traffic key's receipts within delivery d of the list
// being filed — samples[s0:s1] and aggs[a0:a1] — and the key's fine
// bucket.
type keyRun struct {
	d, s0, s1, a0, a1 int32
	fine              uint8
}

// indexScratch is the working storage of whoever indexes: add's run
// list and sortByPktID's counts. The owner keeps it from call to call,
// so neither allocates.
type indexScratch struct {
	runs   []keyRun
	counts []int32
}

// key returns the run's traffic key.
func (r *keyRun) key(d *delivery) packet.PathKey {
	if r.s0 < r.s1 {
		return d.samples[r.s0].Path.Key
	}
	return d.aggs[r.a0].Path.Key
}

// walk appends the delivery's key runs to dst, as delivery d of a list,
// with their fine buckets. Samples and aggregates both arrive
// PathID-sorted, so one merge walk meets each key once, as a run in
// either list or both; an unsorted delivery splits a key into several
// runs, in delivery order.
func (dl *delivery) walk(dst []keyRun, d int) []keyRun {
	samples, aggs := dl.samples, dl.aggs
	n := len(dst)
	dst = slices.Grow(dst, len(samples)+len(aggs))[:n+len(samples)+len(aggs)]
	for i, j := 0, 0; i < len(samples) || j < len(aggs); n++ {
		var key packet.PathKey
		switch {
		case j == len(aggs):
			key = samples[i].Path.Key
		case i == len(samples):
			key = aggs[j].Path.Key
		default:
			// Mostly a key has both, so equality is tested first.
			key = samples[i].Path.Key
			if k := aggs[j].Path.Key; k != key && k.Compare(key) < 0 {
				key = k
			}
		}
		r := &dst[n]
		*r = keyRun{d: int32(d), s0: int32(i), a0: int32(j), fine: fineOf(key)}
		for ; i < len(samples) && samples[i].Path.Key == key; i++ {
		}
		for ; j < len(aggs) && aggs[j].Path.Key == key; j++ {
		}
		r.s1, r.a1 = int32(i), int32(j)
	}
	return dst[:n]
}

// findRuns records the delivery's key runs in runs, once, as a
// WindowedStore seals it, so that no builder walks the receipts or
// hashes a key again: each reads the runs and skips, by their fine
// buckets, those of other partitions. The runs live until the leaf is
// built.
func (dl *delivery) findRuns() {
	dl.runs = dl.walk(make([]keyRun, 0, len(dl.samples)+len(dl.aggs)), 0) // not nil, even empty
}

// runsOf appends to dst, as delivery d, the runs of dl that f keeps —
// the runs found at the seal, or those a walk finds now (filtered in
// place).
func (dl *delivery) runsOf(dst []keyRun, d int, f keyFilter) []keyRun {
	rs := dl.runs
	if rs == nil {
		from := len(dst)
		dst = dl.walk(dst, d)
		rs, dst = dst[from:], dst[:from] // kept runs only move down
	}
	lo, hi := 0, fineBuckets
	if f.parts > 1 {
		lo, hi = firstFine(f.part, f.parts), firstFine(f.part+1, f.parts)
	}
	for _, r := range rs {
		if int(r.fine) < lo || int(r.fine) >= hi || f.only != nil && r.key(dl) != *f.only {
			continue
		}
		r.d = int32(d)
		dst = append(dst, r)
	}
	return dst
}

// add indexes deliveries, in order, keeping the keys f keeps; *l is
// made when nil. A WindowedStore indexes a sealed epoch's deliveries
// with alias set: the leaf then references the receipts' record slices
// instead of copying them, since a sealed interval is final and
// whoever handed it over — a decoded bundle, a collector's drained
// buffers — gave it away. A hand-fed Verifier copies, and passes f.only
// to keep one traffic key's receipts.
//
// It takes two passes: runs gathers the kept runs and sizes one slab for
// all of them; the second pass looks each run's key up once, creates
// what is missing from the slab and files the receipts. Both work in
// *sc (nil: scratch of their own).
func (l *leaf) add(ds []delivery, alias bool, f keyFilter, sc *indexScratch) {
	if sc == nil {
		sc = new(indexScratch)
	}
	runs, slab, most := l.runs(sc.runs[:0], ds, f)
	sc.runs = runs[:0]
	if len(runs) == 0 {
		return
	}
	if *l == nil {
		*l = make(leaf, most)
	}
	m := *l
	for i := range runs {
		r := &runs[i]
		d := &ds[r.d]
		key := r.key(d)
		head := m[key]
		pi, last := head.find(d.hop)
		if pi == nil {
			pi = &cut(&slab.paths, 1)[0]
			pi.hop = d.hop
			if last == nil {
				m[key] = pi
			} else {
				last.next = pi
			}
		}
		for _, s := range d.samples[r.s0:r.s1] {
			pi.addSamples(s, alias, &slab, &sc.counts)
		}
		if r.a0 < r.a1 {
			pi.addAggs(d.aggs[r.a0:r.a1], alias)
		}
	}
}

// runs is add's first pass: it appends to dst the runs of each delivery
// that f keeps (runsOf) and counts what filing them will create: a
// (HOP, key)'s pathIndex, the sampleIndex of one that carries sample
// records, and the records themselves. Into an empty leaf that takes no
// lookup; a leaf that already holds receipts is asked what it has. It
// returns the runs, a slab sized by the counts, and the most runs one
// delivery had — what an empty leaf's map is sized for. An unsorted
// delivery splits a key into several runs, and a HOP delivering twice
// repeats its keys: the counts then only overshoot.
func (l leaf) runs(dst []keyRun, ds []delivery, f keyFilter) ([]keyRun, leafSlab, int) {
	var paths, sampled, recs, most int
	for d := range ds {
		dl := &ds[d]
		from := len(dst)
		dst = dl.runsOf(dst, d, f)
		for _, r := range dst[from:] {
			n := 0
			for _, s := range dl.samples[r.s0:r.s1] {
				n += len(s.Samples)
			}
			recs += n
			var pi *pathIndex
			if len(l) > 0 {
				pi = l[r.key(dl)].of(dl.hop)
			}
			if pi == nil {
				paths++
			}
			if n > 0 && (pi == nil || pi.samples == nil) {
				sampled++
			}
		}
		most = max(most, len(dst)-from)
	}
	return dst, leafSlab{
		paths:   make([]pathIndex, paths),
		samples: make([]sampleIndex, sampled),
		recs:    make([]receipt.SampleRecord, recs),
		ids:     make([]uint64, recs),
	}, most
}

// epochLeaf is one epoch's leaf, split into key partitions: key k
// lives in parts[partOf(k, len(parts))]. A sealed segment's leaf is
// built from from — its expected HOPs' deliveries, in seal order, each
// with the key runs found as it sealed — by the first view that holds it (see
// WindowedStore.view), one builder per partition, each replaying its
// own runs of every delivery, so the partitions need no lock and each
// key's chain has the seal order whoever builds it. done is released
// once every partition is built; nothing writes the leaf after that.
type epochLeaf struct {
	parts []leaf
	from  []delivery
	done  sync.WaitGroup
}

// split cuts the leaf into n key partitions, none built yet.
func (e *epochLeaf) split(n int) { e.parts = make([]leaf, n) }

// buildPart builds partition p, working in *sc.
func (e *epochLeaf) buildPart(p int, sc *indexScratch) {
	e.parts[p].add(e.from, true, keyFilter{part: p, parts: len(e.parts)}, sc)
}

// build builds the leaf as one partition on the calling goroutine and
// releases it.
func (e *epochLeaf) build(sc *indexScratch) {
	e.split(1)
	e.buildPart(0, sc)
	e.release()
}

// release lets go of the deliveries — the leaf references what it
// needs of them — and marks the leaf built.
func (e *epochLeaf) release() {
	e.from = nil
	e.done.Done()
}

// get returns the chain of key's indices, or nil.
func (e *epochLeaf) get(key packet.PathKey) *pathIndex {
	if len(e.parts) == 1 {
		return e.parts[0][key]
	}
	return e.parts[partOf(key, len(e.parts))][key]
}

// len returns how many traffic keys the leaf holds.
func (e *epochLeaf) len() int {
	n := 0
	for _, p := range e.parts {
		n += len(p)
	}
	return n
}

// keys returns the leaf's traffic keys in packet.PathKey order.
func (e *epochLeaf) keys() []packet.PathKey {
	out := make([]packet.PathKey, 0, e.len())
	for _, p := range e.parts {
		for k := range p {
			out = append(out, k)
		}
	}
	slices.SortFunc(out, packet.PathKey.Compare)
	return out
}

// pathIndex holds everything one HOP reported about one traffic key.
// Whoever owns the leaf serializes adding to it; once ingest has
// quiesced the fields are read freely, and mu only serializes the lazy
// marker-timeline build between verifiers reading the same index.
type pathIndex struct {
	mu sync.Mutex

	// hop is the reporting HOP, and next the index of the next HOP that
	// reported the key to the same leaf.
	hop  receipt.HOPID
	next *pathIndex

	pathID  receipt.PathID
	hasPath bool
	// samplePath records that pathID came from a sample receipt — the
	// claim that outranks an aggregate receipt's (see window.path).
	samplePath bool
	aggs       []receipt.AggReceipt
	// samples is nil until the first sample record: on a mesh most
	// (HOP, key) pairs of an interval carry aggregates only.
	samples *sampleIndex
}

// sampleIndex is the sample side of a pathIndex.
type sampleIndex struct {
	ordered []receipt.SampleRecord // every record, arrival order
	// byID holds one record per distinct PktID, sorted by PktID, with
	// the time of its last arrival (last write wins) — a sorted slice,
	// not a map: it is built in bulk, read by binary search, and costs
	// 16 bytes a packet.
	byID []receipt.SampleRecord
	uniq []uint64 // distinct PktIDs, first-arrival order

	markers  []receipt.SampleRecord // time-sorted (stable) markers under markerMu; nil = not built
	markerMu uint64
}

// find returns the position of id in byID. PktIDs are hash digests,
// spread evenly over uint64, so id's rank is guessed from its value and
// the guess widened by doubling steps before bisecting — a probe or two
// on honest receipts, still O(log n) on ids picked to defeat the guess.
func (si *sampleIndex) find(id uint64) (int, bool) {
	s := si.byID
	n := len(s)
	if n == 0 {
		return 0, false
	}
	guess, _ := bits.Mul64(id, uint64(n)) // ⌊id·n / 2⁶⁴⌋
	i := int(guess)
	lo, hi := 0, n // everything before lo is below id, nothing from hi on is
	if s[i].PktID < id {
		lo = i + 1
		for step := 1; i+step < n; step <<= 1 {
			if s[i+step].PktID >= id {
				hi = i + step
				break
			}
			lo = i + step + 1
		}
	} else {
		hi = i
		for step := 1; i-step >= 0; step <<= 1 {
			if s[i-step].PktID < id {
				lo = i - step + 1
				break
			}
			hi = i - step
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].PktID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < n && s[lo].PktID == id
}

// byPktID orders sample records by packet.
func byPktID(a, b receipt.SampleRecord) int { return cmp.Compare(a.PktID, b.PktID) }

// sortByPktID copies recs into dst (as long) sorted by PktID, stably:
// among records of one packet the later arrival stays later. PktIDs are
// hash digests, spread evenly over uint64, so each record first goes to
// the bucket of the n its value predicts — the rank find guesses — about
// one record a bucket, and a bucket holding more is then sorted stably
// on its own: linear on honest receipts, and no slower than a stable
// sort of the batch on ids picked to share a bucket. *counts holds the
// buckets.
func sortByPktID(dst, recs []receipt.SampleRecord, counts *[]int32) {
	n := len(recs)
	if cap(*counts) < n+1 {
		*counts = make([]int32, n+1)
	}
	at := (*counts)[:n+1]
	clear(at)
	for _, r := range recs {
		b, _ := bits.Mul64(r.PktID, uint64(n))
		at[b+1]++
	}
	for b := 1; b < n; b++ {
		at[b] += at[b-1]
	}
	for _, r := range recs {
		b, _ := bits.Mul64(r.PktID, uint64(n))
		dst[at[b]] = r
		at[b]++
	}
	from := int32(0)
	for _, to := range at[:n] {
		switch {
		case to-from > 8:
			slices.SortStableFunc(dst[from:to], byPktID)
		case to-from > 1:
			for i := from + 1; i < to; i++ {
				for j := i; j > from && dst[j-1].PktID > dst[j].PktID; j-- {
					dst[j-1], dst[j] = dst[j], dst[j-1]
				}
			}
		}
		from = to
	}
}

// add files one receipt's records, in arrival order, cutting the sorted
// batch and the first first-arrival list from slab and sorting in
// *counts (nil: counts of its own).
func (si *sampleIndex) add(recs []receipt.SampleRecord, slab *leafSlab, counts *[]int32) {
	// The batch on its own: sorted by PktID, one record per packet
	// carrying its last time — the sort is stable, so among equals the
	// last arrival is the last of its run.
	if counts == nil {
		counts = new([]int32)
	}
	batch := cut(&slab.recs, len(recs))
	sortByPktID(batch, recs, counts)
	n := 0
	for i, rec := range batch {
		if i+1 < len(batch) && batch[i+1].PktID == rec.PktID {
			continue
		}
		batch[n] = rec
		n++
	}
	batch = batch[:n:n]

	// First arrivals, against what was known and within the batch.
	var seen []bool
	if len(batch) < len(recs) {
		seen = make([]bool, len(batch))
	}
	if si.uniq == nil {
		si.uniq = cut(&slab.ids, len(batch))[:0]
	} else {
		si.uniq = slices.Grow(si.uniq, len(batch))
	}
	for _, rec := range recs {
		if len(si.byID) > 0 {
			if _, known := si.find(rec.PktID); known {
				continue
			}
		}
		if seen != nil {
			j, _ := slices.BinarySearchFunc(batch, rec, byPktID)
			if seen[j] {
				continue
			}
			seen[j] = true
		}
		si.uniq = append(si.uniq, rec.PktID)
	}

	if len(si.byID) == 0 {
		si.byID = batch
		return
	}
	merged := make([]receipt.SampleRecord, 0, len(si.byID)+len(batch))
	i, j := 0, 0
	for i < len(si.byID) && j < len(batch) {
		switch {
		case si.byID[i].PktID < batch[j].PktID:
			merged = append(merged, si.byID[i])
			i++
		case si.byID[i].PktID > batch[j].PktID:
			merged = append(merged, batch[j])
			j++
		default: // the later write wins
			merged = append(merged, batch[j])
			i++
			j++
		}
	}
	merged = append(merged, si.byID[i:]...)
	si.byID = append(merged, batch[j:]...)
}

// addSamples files one sample receipt, cutting what it creates from
// slab. With alias set the first receipt's records are referenced, not
// copied (see leaf.add).
func (pi *pathIndex) addSamples(r receipt.SampleReceipt, alias bool, slab *leafSlab, counts *[]int32) {
	pi.pathID, pi.hasPath, pi.samplePath = r.Path, true, true
	if len(r.Samples) == 0 {
		return
	}
	si := pi.samples
	if si == nil {
		si = &cut(&slab.samples, 1)[0]
		pi.samples = si
	}
	si.add(r.Samples, slab, counts)
	if alias && si.ordered == nil {
		si.ordered = r.Samples[:len(r.Samples):len(r.Samples)]
	} else {
		si.ordered = append(si.ordered, r.Samples...)
	}
	si.markers = nil // the timeline derives from ordered; rebuild on demand
}

// addAggs files a run of one traffic key's aggregate receipts, in
// stream order; alias as in addSamples.
func (pi *pathIndex) addAggs(rs []receipt.AggReceipt, alias bool) {
	if alias && pi.aggs == nil {
		pi.aggs = rs[:len(rs):len(rs)]
	} else {
		pi.aggs = append(pi.aggs, rs...)
	}
	if !pi.hasPath {
		pi.pathID, pi.hasPath = rs[0].Path, true
	}
}

// uniqOrder returns the distinct sampled PktIDs in first-arrival
// order. The slice is shared: callers must not mutate it.
func (pi *pathIndex) uniqOrder() []uint64 {
	if pi == nil || pi.samples == nil {
		return nil
	}
	return pi.samples.uniq
}

// timeOf returns the observation time of one packet.
func (pi *pathIndex) timeOf(id uint64) (int64, bool) {
	if pi == nil || pi.samples == nil {
		return 0, false
	}
	i, ok := pi.samples.find(id)
	if !ok {
		return 0, false
	}
	return pi.samples.byID[i].TimeNS, true
}

// markerTimeline returns the time-sorted marker samples under µ = mu.
// The slice is rebuilt on µ changes and never mutated in place.
func (pi *pathIndex) markerTimeline(mu uint64) []receipt.SampleRecord {
	if pi == nil || pi.samples == nil {
		return nil
	}
	pi.mu.Lock()
	defer pi.mu.Unlock()
	si := pi.samples
	if si.markerMu != mu || si.markers == nil {
		markers := make([]receipt.SampleRecord, 0, 8)
		for _, rec := range si.ordered {
			if hashing.Exceeds(rec.PktID, mu) {
				markers = append(markers, rec)
			}
		}
		// Stable: among markers with equal timestamps the earliest
		// arrival stays first, matching the pre-index linear scan.
		sort.SliceStable(markers, func(a, b int) bool { return markers[a].TimeNS < markers[b].TimeNS })
		si.markers, si.markerMu = markers, mu
	}
	return si.markers
}

// window is what the §4 kernel reads about one HOP and one traffic
// key: the leaf indices holding its receipts, oldest first. A hand-fed
// Verifier's window has the one index of its leaf; a per-epoch window
// spans the target interval's leaf and its neighbours' (see
// WindowedStore.view), and answers exactly as one index fed the
// leaves' receipts in order would:
//
//   - a packet's time is the newest leaf's that sampled it (last write
//     wins);
//   - the PathID claim is the last leaf's that carried a sample
//     receipt, else the first's that carried an aggregate;
//   - the aggregates are the leaves' concatenation, the packet order
//     their first-arrival order, and the marker timeline the stable
//     merge of the leaves' timelines.
//
// A window is a value private to whoever resolved it; the leaves under
// it are shared and read-only.
type window struct {
	leaves [3]*pathIndex
	n      int
	// aggs is the leaves' aggregates concatenated, filled by whoever
	// assembles a window of several leaves (epochView.resolve).
	aggs []receipt.AggReceipt
	// markers caches the merged timeline of a window of several leaves.
	markers  []receipt.SampleRecord
	markerMu uint64
}

// soleWindow wraps one index (nil: nothing reported).
func soleWindow(pi *pathIndex) window {
	var w window
	if pi != nil {
		w.leaves[0], w.n = pi, 1
	}
	return w
}

// path returns the window's PathID claim.
func (w *window) path() (receipt.PathID, bool) {
	for i := w.n - 1; i >= 0; i-- {
		if w.leaves[i].samplePath {
			return w.leaves[i].pathID, true
		}
	}
	for i := 0; i < w.n; i++ {
		if w.leaves[i].hasPath {
			return w.leaves[i].pathID, true
		}
	}
	return receipt.PathID{}, false
}

// timeOf returns the observation time of one packet.
func (w *window) timeOf(id uint64) (int64, bool) {
	for i := w.n - 1; i >= 0; i-- {
		if t, ok := w.leaves[i].timeOf(id); ok {
			return t, true
		}
	}
	return 0, false
}

// hasSamples reports whether the window holds any sample record.
func (w *window) hasSamples() bool {
	for i := 0; i < w.n; i++ {
		if w.leaves[i].samples != nil {
			return true
		}
	}
	return false
}

// uniq returns the distinct sampled PktIDs in first-arrival order.
// The slice may be shared: callers must not mutate it.
func (w *window) uniq() []uint64 {
	if w.n <= 1 {
		return w.leaves[0].uniqOrder()
	}
	var out []uint64
	seen := make(map[uint64]bool)
	for i := 0; i < w.n; i++ {
		for _, id := range w.leaves[i].uniqOrder() {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// aggReceipts returns the aggregate receipts in stream order. The
// slice is shared: callers must not mutate it.
func (w *window) aggReceipts() []receipt.AggReceipt {
	switch w.n {
	case 0:
		return nil
	case 1:
		return w.leaves[0].aggs
	}
	return w.aggs
}

// markerTimeline returns the time-sorted marker samples under µ = mu.
func (w *window) markerTimeline(mu uint64) []receipt.SampleRecord {
	if w.n <= 1 {
		return w.leaves[0].markerTimeline(mu)
	}
	if w.markers == nil || w.markerMu != mu {
		// Stable across leaves as within one: on equal timestamps the
		// older leaf's marker stays first.
		merged := make([]receipt.SampleRecord, 0, 8)
		for i := 0; i < w.n; i++ {
			merged = mergeTimelines(merged, w.leaves[i].markerTimeline(mu))
		}
		w.markers, w.markerMu = merged, mu
	}
	return w.markers
}

// mergeTimelines merges two time-sorted timelines into a fresh slice,
// a's records first on equal timestamps. An empty side returns the
// other unchanged.
func mergeTimelines(a, b []receipt.SampleRecord) []receipt.SampleRecord {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]receipt.SampleRecord, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j].TimeNS < a[i].TimeNS {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
