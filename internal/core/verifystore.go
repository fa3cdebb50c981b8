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
// reported it → what each reported. A WindowedStore holds one per
// epoch, built as each HOP seals and immutable once every expected HOP
// has (see epochSegment); a hand-fed Verifier holds one that grows as
// receipts arrive.
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
type leaf map[packet.PathKey]*keyIndex

// keyIndex lists the HOPs that reported one traffic key, in the order
// their first receipt arrived — a handful even on a mesh, so finding a
// HOP is a short scan, not a second map.
type keyIndex struct {
	hops []hopIndex
}

type hopIndex struct {
	hop receipt.HOPID
	pi  *pathIndex
}

// of returns what hop reported about the key, or nil.
func (k *keyIndex) of(hop receipt.HOPID) *pathIndex {
	if k == nil {
		return nil
	}
	for i := range k.hops {
		if k.hops[i].hop == hop {
			return k.hops[i].pi
		}
	}
	return nil
}

// index returns (creating if needed) the index for (hop, key), cutting
// whatever it creates from slab.
func (l leaf) index(hop receipt.HOPID, key packet.PathKey, slab *leafSlab) *pathIndex {
	ki := l[key]
	if pi := ki.of(hop); pi != nil {
		return pi
	}
	return l.addPath(hop, key, ki, slab)
}

// addPath creates the index for (hop, key), which the leaf does not
// hold; ki is the key's entry, nil when the key is new to the leaf.
func (l leaf) addPath(hop receipt.HOPID, key packet.PathKey, ki *keyIndex, slab *leafSlab) *pathIndex {
	if ki == nil {
		ki = &cut(&slab.keys, 1)[0]
		ki.hops = cut(&slab.hops, 1)[:0]
		l[key] = ki
	} else if len(ki.hops) == cap(ki.hops) {
		// Grow as append would, into the slab.
		ki.hops = append(cut(&slab.hops, 2*len(ki.hops))[:0], ki.hops...)
	}
	pi := &cut(&slab.paths, 1)[0]
	ki.hops = append(ki.hops, hopIndex{hop, pi})
	return pi
}

// leafSlab is what one addHOP call cuts the index values it creates
// from: one allocation per kind, sized by its first pass (leaf.runs). A
// slab lives as long as anything cut from it — for a sealed (HOP,
// epoch), as long as its segment.
type leafSlab struct {
	keys    []keyIndex
	paths   []pathIndex
	hops    []hopIndex // each new key's initial list, and full lists grown
	samples []sampleIndex
	recs    []receipt.SampleRecord // sampleIndex.add's sorted batches
	ids     []uint64               // sampleIndex.add's first arrivals
}

// cut takes the next n values off the front of *slab as a capped
// three-index slice, so a later append — a second HOP reporting the
// key, a second receipt for it — reallocates instead of reaching a
// neighbour. A slab the count left short yields a fresh slice.
func cut[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		return make([]T, n)
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// keyRun is one traffic key's receipts within a delivery —
// samples[s0:s1] and aggs[a0:a1] — and what the leaf held for the key
// before it: ki is nil for a key new to the leaf, pi for a key new to
// the delivering HOP.
type keyRun struct {
	s0, s1, a0, a1 int
	ki             *keyIndex
	pi             *pathIndex
}

// addHOP indexes receipts one HOP delivered. A WindowedStore indexes a
// sealed (HOP, epoch) with alias set: the leaf then references the
// receipts' record slices instead of copying them, since a sealed
// interval is final and whoever handed it over — a decoded bundle, a
// collector's drained buffers — gave it away. A hand-fed Verifier
// copies, and passes only to keep one traffic key's receipts.
//
// It takes two passes: runs finds each key's receipts and looks the key
// up once, sizing the slab from what is missing; the second pass creates
// that from the slab and files the receipts. The runs live in *scratch,
// which the caller keeps between calls under the lock that guards the
// leaf, so a delivery allocates no run list.
func (l leaf) addHOP(hop receipt.HOPID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt, alias bool, only *packet.PathKey, scratch *[]keyRun) {
	runs, slab, ascending := l.runs((*scratch)[:0], hop, samples, aggs, only)
	for _, r := range runs {
		pi := r.pi
		switch {
		case !ascending:
			// A key may recur in a later run, so what the first pass saw is
			// stale: look again.
			pi = l.index(hop, r.key(samples, aggs), &slab)
		case pi == nil:
			pi = l.addPath(hop, r.key(samples, aggs), r.ki, &slab)
		}
		for _, s := range samples[r.s0:r.s1] {
			pi.addSamples(s, alias, &slab)
		}
		if r.a0 < r.a1 {
			pi.addAggs(aggs[r.a0:r.a1], alias)
		}
	}
	clear(runs) // the scratch must not pin an evicted segment's index
	*scratch = runs[:0]
}

// key returns the run's traffic key.
func (r *keyRun) key(samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) packet.PathKey {
	if r.s0 < r.s1 {
		return samples[r.s0].Path.Key
	}
	return aggs[r.a0].Path.Key
}

// runs is addHOP's first pass. Samples and aggregates both arrive
// PathID-sorted, so one merge walk meets each key once, as a run in
// either list or both; runs appends each run of a key only passes to
// dst, looks the key up, and counts what indexing the delivery will
// create: a new key's keyIndex and initial hop list, a new (hop, key)'s
// pathIndex, a full hop list's growth, the keys that carry sample
// records and the records themselves. It returns the runs, a slab sized
// by the counts, and whether the runs' keys ascend strictly. An unsorted
// delivery splits a key into several runs: they do not ascend, and the
// counts only overshoot.
func (l leaf) runs(dst []keyRun, hop receipt.HOPID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt, only *packet.PathKey) ([]keyRun, leafSlab, bool) {
	var keys, paths, hops, sampled, recs int
	ascending := true
	dst = slices.Grow(dst, len(samples)+len(aggs))
	for i, j := 0, 0; i < len(samples) || j < len(aggs); {
		var key packet.PathKey
		if j == len(aggs) || i < len(samples) && samples[i].Path.Key.Compare(aggs[j].Path.Key) <= 0 {
			key = samples[i].Path.Key
		} else {
			key = aggs[j].Path.Key
		}
		r := keyRun{s0: i, a0: j}
		n := 0
		for ; i < len(samples) && samples[i].Path.Key == key; i++ {
			n += len(samples[i].Samples)
		}
		for ; j < len(aggs) && aggs[j].Path.Key == key; j++ {
		}
		r.s1, r.a1 = i, j
		if only != nil && key != *only {
			continue
		}
		if len(dst) > 0 && dst[len(dst)-1].key(samples, aggs).Compare(key) >= 0 {
			ascending = false
		}
		if n > 0 {
			sampled++
			recs += n
		}
		r.ki = l[key]
		r.pi = r.ki.of(hop)
		switch {
		case r.ki == nil:
			keys++
			hops++
			paths++
		case r.pi == nil:
			paths++
			if len(r.ki.hops) == cap(r.ki.hops) {
				hops += 2 * len(r.ki.hops)
			}
		}
		dst = append(dst, r)
	}
	return dst, leafSlab{
		keys:    make([]keyIndex, keys),
		paths:   make([]pathIndex, paths),
		hops:    make([]hopIndex, hops),
		samples: make([]sampleIndex, sampled),
		recs:    make([]receipt.SampleRecord, recs),
		ids:     make([]uint64, recs),
	}, ascending
}

// keys returns the leaf's traffic keys in packet.PathKey order.
func (l leaf) keys() []packet.PathKey {
	out := make([]packet.PathKey, 0, len(l))
	for k := range l {
		out = append(out, k)
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

// add files one receipt's records, in arrival order, cutting the sorted
// batch and the first first-arrival list from slab.
func (si *sampleIndex) add(recs []receipt.SampleRecord, slab *leafSlab) {
	// The batch on its own: sorted by PktID, one record per packet
	// carrying its last time. A packet recorded twice in one receipt is
	// rare, so sort fast first and redo it stably — among equals the last
	// arrival is then the last of its run — only when that turns one up.
	batch := cut(&slab.recs, len(recs))
	copy(batch, recs)
	slices.SortFunc(batch, byPktID)
	for i := 1; i < len(batch); i++ {
		if batch[i].PktID == batch[i-1].PktID {
			copy(batch, recs)
			slices.SortStableFunc(batch, byPktID)
			break
		}
	}
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
		if _, known := si.find(rec.PktID); known {
			continue
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
// copied (see leaf.addHOP).
func (pi *pathIndex) addSamples(r receipt.SampleReceipt, alias bool, slab *leafSlab) {
	pi.pathID, pi.hasPath, pi.samplePath = r.Path, true, true
	if len(r.Samples) == 0 {
		return
	}
	si := pi.samples
	if si == nil {
		si = &cut(&slab.samples, 1)[0]
		pi.samples = si
	}
	si.add(r.Samples, slab)
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
// WindowedStore.View), and answers exactly as one index fed the
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
