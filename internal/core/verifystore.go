package core

import (
	"sort"
	"sync"

	"vpm/internal/hashing"
	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// ReceiptStore is the indexed receipt store behind the verifier.
// Receipts from every HOP on a path — or from every HOP on many paths
// — are filed under their (HOP, traffic-key) receipt.StoreKey as they
// arrive, so a link check matches the two ends of a link with index
// lookups instead of re-scanning flat per-HOP slices.
//
// Beyond the raw sample map, each index maintains two derived views,
// built lazily and cached:
//
//   - the deduplicated packet order (first-arrival order of distinct
//     PktIDs), which makes every verifier iteration deterministic
//     instead of following Go map order;
//   - the marker timeline (time-sorted samples whose digest exceeds
//     the system-wide µ), which turns the Algorithm 1 re-derivation in
//     missing-record checks from a scan over all of a HOP's samples
//     into a binary search.
//
// Concurrency: ingest calls (AddSamples, AddAggs, IngestBundle) may
// run concurrently with each other — a store can drain several
// dissemination fetches at once. Verification may run concurrently
// with verification (several verifiers may read the same store from
// many goroutines), but not with ingest: quiesce ingestion before
// verifying.
type ReceiptStore struct {
	mu     sync.Mutex
	idx    map[receipt.StoreKey]*pathIndex
	byHOP  map[receipt.HOPID][]*pathIndex // creation order per HOP
	merged map[receipt.HOPID]*pathIndex   // cached multi-key merges
}

// NewReceiptStore returns an empty indexed receipt store.
func NewReceiptStore() *ReceiptStore {
	return &ReceiptStore{
		idx:    make(map[receipt.StoreKey]*pathIndex),
		byHOP:  make(map[receipt.HOPID][]*pathIndex),
		merged: make(map[receipt.HOPID]*pathIndex),
	}
}

// pathIndex holds everything one HOP reported about one traffic key.
// The store's mutex guards index creation; the index's own mutex
// guards every field, so concurrent readers and the lazy cache builds
// stay race-free.
type pathIndex struct {
	mu sync.Mutex

	pathID  receipt.PathID
	hasPath bool
	byID    map[uint64]int64 // PktID -> observation time (last write wins)
	ordered []receipt.SampleRecord
	aggs    []receipt.AggReceipt

	// Derived caches; dirty is set on every sample append.
	dirty    bool
	uniq     []uint64               // distinct PktIDs, first-arrival order
	markers  []receipt.SampleRecord // time-sorted (stable) markers under markerMu
	markerMu uint64
}

// index returns (creating if needed) the index for key. It is only
// called on ingest, so the HOP's cached merged view — a snapshot of
// all its indexes — is invalidated unconditionally.
func (s *ReceiptStore) index(key receipt.StoreKey) *pathIndex {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.merged, key.HOP)
	pi, ok := s.idx[key]
	if !ok {
		pi = &pathIndex{byID: make(map[uint64]int64)}
		s.idx[key] = pi
		s.byHOP[key.HOP] = append(s.byHOP[key.HOP], pi)
	}
	return pi
}

// AddSamples files one sample receipt under its store key.
func (s *ReceiptStore) AddSamples(hop receipt.HOPID, r receipt.SampleReceipt) {
	pi := s.index(receipt.KeyOf(hop, r.Path))
	pi.mu.Lock()
	defer pi.mu.Unlock()
	for _, rec := range r.Samples {
		pi.byID[rec.PktID] = rec.TimeNS
	}
	pi.ordered = append(pi.ordered, r.Samples...)
	pi.pathID, pi.hasPath = r.Path, true
	pi.dirty = true
}

// AddAggs files one HOP's aggregate receipts, in stream order. The
// receipts may span several traffic keys; each lands in its own index.
func (s *ReceiptStore) AddAggs(hop receipt.HOPID, rs []receipt.AggReceipt) {
	for i := 0; i < len(rs); {
		j := i + 1
		for j < len(rs) && rs[j].Path.Key == rs[i].Path.Key {
			j++
		}
		pi := s.index(receipt.KeyOf(hop, rs[i].Path))
		pi.mu.Lock()
		pi.aggs = append(pi.aggs, rs[i:j]...)
		if !pi.hasPath {
			pi.pathID, pi.hasPath = rs[i].Path, true
		}
		pi.mu.Unlock()
		i = j
	}
}

// Keys returns the distinct traffic keys the store has receipts for,
// in packet.PathKey order — the deterministic iteration order for
// multi-path verification sweeps.
func (s *ReceiptStore) Keys() []packet.PathKey {
	s.mu.Lock()
	seen := make(map[packet.PathKey]bool)
	var out []packet.PathKey
	for k := range s.idx {
		if !seen[k.Key] {
			seen[k.Key] = true
			out = append(out, k.Key)
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// lookup returns the index for (hop, key) without creating it, or nil.
func (s *ReceiptStore) lookup(hop receipt.HOPID, key packet.PathKey) *pathIndex {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx[receipt.StoreKey{HOP: hop, Key: key}]
}

// hopView returns the index serving unrestricted queries about hop:
// the HOP's sole index when it reported one traffic key, or a cached
// merge of all its indexes (in creation order) when it reported
// several — the flat-pool semantics hand-built verifiers relied on
// before the store existed.
func (s *ReceiptStore) hopView(hop receipt.HOPID) *pathIndex {
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.byHOP[hop]
	switch len(list) {
	case 0:
		return nil
	case 1:
		return list[0]
	}
	if m, ok := s.merged[hop]; ok {
		return m
	}
	m := &pathIndex{byID: make(map[uint64]int64)}
	for _, pi := range list {
		pi.mu.Lock()
		for _, rec := range pi.ordered {
			m.byID[rec.PktID] = rec.TimeNS
		}
		m.ordered = append(m.ordered, pi.ordered...)
		m.aggs = append(m.aggs, pi.aggs...)
		if pi.hasPath {
			m.pathID, m.hasPath = pi.pathID, true
		}
		pi.mu.Unlock()
	}
	m.dirty = true
	s.merged[hop] = m
	return m
}

// path returns the index's PathID claim.
func (pi *pathIndex) path() (receipt.PathID, bool) {
	if pi == nil {
		return receipt.PathID{}, false
	}
	pi.mu.Lock()
	defer pi.mu.Unlock()
	return pi.pathID, pi.hasPath
}

// sampleCount returns the number of distinct sampled packets.
func (pi *pathIndex) sampleCount() int {
	if pi == nil {
		return 0
	}
	pi.mu.Lock()
	defer pi.mu.Unlock()
	return len(pi.byID)
}

// timeOf returns the observation time of one packet.
func (pi *pathIndex) timeOf(id uint64) (int64, bool) {
	if pi == nil {
		return 0, false
	}
	pi.mu.Lock()
	defer pi.mu.Unlock()
	t, ok := pi.byID[id]
	return t, ok
}

// aggReceipts returns the index's aggregate receipts in stream order.
// The returned slice is shared: callers must not mutate it.
func (pi *pathIndex) aggReceipts() []receipt.AggReceipt {
	if pi == nil {
		return nil
	}
	pi.mu.Lock()
	defer pi.mu.Unlock()
	return pi.aggs
}

// snapshot returns the deduplicated packet order and the sample map.
// Both are shared, read-only views: the uniq slice is rebuilt (never
// mutated in place) and byID is only written under ingest, which is
// excluded during verification.
func (pi *pathIndex) snapshot() (uniq []uint64, byID map[uint64]int64) {
	if pi == nil {
		return nil, nil
	}
	pi.mu.Lock()
	defer pi.mu.Unlock()
	pi.rebuildLocked()
	return pi.uniq, pi.byID
}

// markerTimeline returns the time-sorted marker samples under µ = mu.
// The slice is rebuilt on µ changes and never mutated in place.
func (pi *pathIndex) markerTimeline(mu uint64) []receipt.SampleRecord {
	if pi == nil {
		return nil
	}
	pi.mu.Lock()
	defer pi.mu.Unlock()
	pi.rebuildLocked()
	if pi.markerMu != mu || pi.markers == nil {
		markers := make([]receipt.SampleRecord, 0, 8)
		for _, rec := range pi.ordered {
			if hashing.Exceeds(rec.PktID, mu) {
				markers = append(markers, rec)
			}
		}
		// Stable: among markers with equal timestamps the earliest
		// arrival stays first, matching the pre-index linear scan.
		sort.SliceStable(markers, func(a, b int) bool { return markers[a].TimeNS < markers[b].TimeNS })
		pi.markers, pi.markerMu = markers, mu
	}
	return pi.markers
}

// rebuildLocked refreshes the uniq cache; pi.mu must be held.
func (pi *pathIndex) rebuildLocked() {
	if !pi.dirty && pi.uniq != nil {
		return
	}
	seen := make(map[uint64]bool, len(pi.byID))
	uniq := make([]uint64, 0, len(pi.byID))
	for _, rec := range pi.ordered {
		if !seen[rec.PktID] {
			seen[rec.PktID] = true
			uniq = append(uniq, rec.PktID)
		}
	}
	pi.uniq = uniq
	pi.dirty = false
	pi.markers = nil // timeline derives from ordered; rebuild on demand
}
