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

// index returns (creating if needed) the index for (hop, key); created
// reports whether it is new.
func (l leaf) index(hop receipt.HOPID, key packet.PathKey) (pi *pathIndex, created bool) {
	ki := l[key]
	if ki == nil {
		ki = &keyIndex{}
		l[key] = ki
	} else if pi := ki.of(hop); pi != nil {
		return pi, false
	}
	pi = &pathIndex{}
	ki.hops = append(ki.hops, hopIndex{hop, pi})
	return pi, true
}

// addHOP indexes receipts one HOP delivered. A WindowedStore indexes a
// sealed (HOP, epoch) with alias set: the leaf then references the
// receipts' record slices instead of copying them, since a sealed
// interval is final and whoever handed it over — a decoded bundle, a
// collector's drained buffers — gave it away. A hand-fed Verifier
// copies, and passes only to keep one traffic key's receipts.
func (l leaf) addHOP(hop receipt.HOPID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt, alias bool, only *packet.PathKey) {
	for _, r := range samples {
		if only == nil || r.Path.Key == *only {
			pi, _ := l.index(hop, r.Path.Key)
			pi.addSamples(r, alias)
		}
	}
	for i := 0; i < len(aggs); {
		j := aggRunEnd(aggs, i)
		if only == nil || aggs[i].Path.Key == *only {
			pi, _ := l.index(hop, aggs[i].Path.Key)
			pi.addAggs(aggs[i:j], alias)
		}
		i = j
	}
}

// aggRunEnd returns the end of the run of aggregate receipts starting
// at i that share one traffic key.
func aggRunEnd(rs []receipt.AggReceipt, i int) int {
	j := i + 1
	for j < len(rs) && rs[j].Path.Key == rs[i].Path.Key {
		j++
	}
	return j
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

// add files one receipt's records, in arrival order.
func (si *sampleIndex) add(recs []receipt.SampleRecord) {
	// The batch on its own: sorted by PktID, one record per packet
	// carrying its last time. A packet recorded twice in one receipt is
	// rare, so sort fast first and redo it stably — among equals the last
	// arrival is then the last of its run — only when that turns one up.
	batch := slices.Clone(recs)
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
	batch = batch[:n]

	// First arrivals, against what was known and within the batch.
	var seen []bool
	if len(batch) < len(recs) {
		seen = make([]bool, len(batch))
	}
	si.uniq = slices.Grow(si.uniq, len(batch))
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

// addSamples files one sample receipt. With alias set the first
// receipt's records are referenced, not copied (see leaf.addHOP).
func (pi *pathIndex) addSamples(r receipt.SampleReceipt, alias bool) {
	pi.pathID, pi.hasPath, pi.samplePath = r.Path, true, true
	if len(r.Samples) == 0 {
		return
	}
	si := pi.samples
	if si == nil {
		si = &sampleIndex{}
		pi.samples = si
	}
	si.add(r.Samples)
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
