package segstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vpm/internal/receipt"
)

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
	mfs := NewMemFS()
	s, _, err := Open("", Options{FS: mfs, DiskRetention: 3})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fillEpochs(t, s, 8, []receipt.HOPID{0})
	for epoch := uint64(0); epoch < 8; epoch++ {
		if err := s.PutReport(epoch, []byte(`{}`)); err != nil {
			t.Fatalf("PutReport(%d): %v", epoch, err)
		}
	}

	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := s.SealedEpochs(); !reflect.DeepEqual(got, []uint64{5, 6, 7}) {
		t.Fatalf("SealedEpochs = %v, want [5 6 7]", got)
	}
	if got := s.ReportEpochs(); !reflect.DeepEqual(got, []uint64{5, 6, 7}) {
		t.Fatalf("ReportEpochs = %v, want [5 6 7]", got)
	}
	st := s.StoreStats()
	if st.Segments != 3 || st.Reports != 3 {
		t.Fatalf("StoreStats after retention: %+v, want 3 segments and 3 reports", st)
	}
	names, _ := mfs.List()
	if len(names) != 1+3+3 {
		t.Fatalf("files after retention = %v, want the manifest, 3 segments and 3 reports", names)
	}

	// Idempotent: a second pass with nothing aged out commits nothing.
	log, _ := mfs.ReadInto(manifestName, nil)
	if err := s.Compact(); err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	if again, _ := mfs.ReadInto(manifestName, nil); !bytes.Equal(again, log) || s.StoreStats() != st {
		t.Fatalf("second pass did work: %+v", s.StoreStats())
	}
}

func TestAutoCompactBoundsSegmentCount(t *testing.T) {
	s, _, err := Open("", Options{FS: NewMemFS(), AutoCompact: true, DiskRetention: 4})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fillEpochs(t, s, 20, []receipt.HOPID{0})
	if got := s.SealedEpochs(); !reflect.DeepEqual(got, []uint64{16, 17, 18, 19}) {
		t.Fatalf("SealedEpochs = %v, want the last 4", got)
	}
	st := s.StoreStats()
	if st.SealedEpochs != 4 || st.Segments != 4 {
		t.Fatalf("StoreStats = %+v, want 4 epochs in 4 segments", st)
	}
}

// Compact runs one retention pass once the writer is idle, every seal
// handed to it committed.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.idleLocked(); err != nil {
		return err
	}
	return s.retainLocked()
}

// TestRetiredEpochRefusesWrites: with DiskRetention 2, AutoCompact and
// epochs 0–4 sealed, retention has retired epochs 0–2, so an Append or
// Seal for epoch 1 is refused with ErrEpochSealed and writes nothing —
// the evidence would be written, sealed and retired again unseen.
// Without AutoCompact the same epoch, unsealed, is written as any other.
func TestRetiredEpochRefusesWrites(t *testing.T) {
	mfs := NewMemFS()
	s, _, err := Open("", Options{FS: mfs, AutoCompact: true, DiskRetention: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	fillEpochs(t, s, 5, []receipt.HOPID{0})
	files := func() map[string]string {
		names, err := mfs.List()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string, len(names))
		for _, name := range names {
			data, err := mfs.ReadInto(name, nil)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = string(data)
		}
		return out
	}
	before, sealed := files(), s.SealedEpochs()
	samples, aggs := testReceipts(1, 0)
	if err := s.Append(1, 0, samples, aggs); !errors.Is(err, ErrEpochSealed) {
		t.Fatalf("Append to retired epoch 1: %v, want ErrEpochSealed", err)
	}
	if err := s.Seal(1); !errors.Is(err, ErrEpochSealed) {
		t.Fatalf("Seal of retired epoch 1: %v, want ErrEpochSealed", err)
	}
	if err := drain(s); err != nil {
		t.Fatal(err)
	}
	if after := files(); !reflect.DeepEqual(after, before) {
		t.Fatal("refused writes changed the store's files")
	}
	if got := s.SealedEpochs(); !reflect.DeepEqual(got, sealed) {
		t.Fatalf("SealedEpochs = %v after refused writes, want %v", got, sealed)
	}
	// The epoch above the horizon that no seal holds yet still opens.
	fillFrom(t, s, 5, 6, []receipt.HOPID{0})

	// Without AutoCompact nothing is retired, so an epoch below the
	// horizon that no seal holds is still written and sealed.
	keep, _, err := Open("", Options{FS: NewMemFS(), DiskRetention: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer keep.Close()
	fillFrom(t, keep, 2, 5, []receipt.HOPID{0})
	fillFrom(t, keep, 1, 2, []receipt.HOPID{0})
	if got, want := keep.SealedEpochs(), []uint64{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("SealedEpochs = %v without AutoCompact, want %v", got, want)
	}
}
