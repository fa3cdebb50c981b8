package segstore

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vpm/internal/receipt"
)

func TestCompactMergesSmallRuns(t *testing.T) {
	mfs := NewMemFS()
	s, _, err := Open("", Options{FS: mfs, CompactFanIn: 4})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	hops := []receipt.HOPID{0, 1}
	fillEpochs(t, s, 10, hops)

	before := make(map[uint64][]Block)
	for _, epoch := range s.SealedEpochs() {
		blocks, err := s.ReadEpoch(epoch)
		if err != nil {
			t.Fatalf("ReadEpoch(%d): %v", epoch, err)
		}
		before[epoch] = blocks
	}

	st, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st.Merges == 0 || st.SegmentsMerged < 4 {
		t.Fatalf("no merging happened: %+v", st)
	}
	if got := len(s.Manifest()); got >= 10 {
		t.Fatalf("still %d segments after compaction", got)
	}

	// Every epoch reads back byte-for-byte the same blocks.
	for epoch, want := range before {
		got, err := s.ReadEpoch(epoch)
		if err != nil {
			t.Fatalf("ReadEpoch(%d) after compact: %v", epoch, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d changed across compaction", epoch)
		}
	}

	// And across a reopen of the compacted store.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, stats, err := Open("", Options{FS: mfs, CompactFanIn: 4})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if stats.SealedEpochs != 10 {
		t.Fatalf("recovered %d epochs, want 10", stats.SealedEpochs)
	}
	for epoch, want := range before {
		got, err := s2.ReadEpoch(epoch)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d changed across compaction + reopen (%v)", epoch, err)
		}
	}

	// No stale files: everything listed is the manifest or committed.
	names, _ := mfs.List()
	committed := map[string]bool{manifestName: true}
	for _, e := range s2.Manifest() {
		committed[e.File] = true
	}
	for _, name := range names {
		if !committed[name] {
			t.Fatalf("uncommitted file %s survived compaction", name)
		}
	}
}

// TestOpenRefusesNegativeRetention: a negative DiskRetention is a typo,
// not "keep everything" — Open returns ErrBadOptions and creates no
// directory.
func TestOpenRefusesNegativeRetention(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s, _, err := Open(dir, Options{DiskRetention: -1, AutoCompact: true})
	if !errors.Is(err, ErrBadOptions) || s != nil {
		t.Fatalf("Open with DiskRetention -1: store %v, err %v; want ErrBadOptions", s, err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused Open touched %s: %v", dir, err)
	}
}

func TestCompactRetentionDropsOldEpochsAndReports(t *testing.T) {
	s, _, err := Open("", Options{FS: NewMemFS(), DiskRetention: 3, CompactFanIn: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fillEpochs(t, s, 8, []receipt.HOPID{0})
	for epoch := uint64(0); epoch < 8; epoch++ {
		if err := s.PutReport(epoch, []byte(`{}`)); err != nil {
			t.Fatalf("PutReport(%d): %v", epoch, err)
		}
	}

	st, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st.EpochsDropped != 5 || st.SegmentsDropped != 5 || st.ReportsDropped != 5 {
		t.Fatalf("retention stats: %+v", st)
	}
	if got := s.SealedEpochs(); !reflect.DeepEqual(got, []uint64{5, 6, 7}) {
		t.Fatalf("SealedEpochs = %v, want [5 6 7]", got)
	}
	if got := s.ReportEpochs(); !reflect.DeepEqual(got, []uint64{5, 6, 7}) {
		t.Fatalf("ReportEpochs = %v, want [5 6 7]", got)
	}

	// Idempotent: a second pass with nothing aged out does nothing.
	st, err = s.Compact()
	if err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	if st.changed() {
		t.Fatalf("second pass did work: %+v", st)
	}
}

func TestAutoCompactBoundsSegmentCount(t *testing.T) {
	s, _, err := Open("", Options{FS: NewMemFS(), AutoCompact: true, DiskRetention: 4, CompactFanIn: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fillEpochs(t, s, 20, []receipt.HOPID{0})
	if got := s.SealedEpochs(); !reflect.DeepEqual(got, []uint64{16, 17, 18, 19}) {
		t.Fatalf("SealedEpochs = %v, want the last 4", got)
	}
	st := s.StoreStats()
	if st.SealedEpochs != 4 {
		t.Fatalf("StoreStats.SealedEpochs = %d, want 4", st.SealedEpochs)
	}
}

func TestCompactLeavesLargeSegmentsAlone(t *testing.T) {
	// CompactMaxBytes of 1 makes every segment "large": nothing merges.
	s, _, err := Open("", Options{FS: NewMemFS(), CompactFanIn: 2, CompactMaxBytes: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fillEpochs(t, s, 6, []receipt.HOPID{0})
	st, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st.Merges != 0 {
		t.Fatalf("merged above the size cap: %+v", st)
	}
	if got := len(s.Manifest()); got != 6 {
		t.Fatalf("%d segments, want 6 untouched", got)
	}
}

// Compact runs one retention-and-merge pass. Safe to call at any
// cadence; a pass with nothing to do is cheap and commits nothing.
func (s *Store) Compact() (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}
