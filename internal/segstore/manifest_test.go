package segstore

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"vpm/internal/receipt"
)

// countFS wraps an FS and records every mutating operation in order —
// its kind and the file it touches — and the bytes written.
type countFS struct {
	FS
	mu    sync.Mutex
	ops   []fsOp
	bytes int64
}

// fsOp is one recorded operation: "write", "sync", "syncdir",
// "rename" (name is the target), "remove" or "truncate".
type fsOp struct{ kind, name string }

func (c *countFS) note(kind, name string, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops = append(c.ops, fsOp{kind, name})
	c.bytes += int64(n)
}

// take returns what was recorded since the last take and resets it.
func (c *countFS) take() ([]fsOp, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ops, n := c.ops, c.bytes
	c.ops, c.bytes = nil, 0
	return ops, n
}

type countFile struct {
	File
	c    *countFS
	name string
}

func (f countFile) Write(p []byte) (int, error) {
	f.c.note("write", f.name, len(p))
	return f.File.Write(p)
}

func (f countFile) Sync() error {
	f.c.note("sync", f.name, 0)
	return f.File.Sync()
}

func (c *countFS) OpenAppend(name string) (File, error) {
	f, err := c.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return countFile{File: f, c: c, name: name}, nil
}

func (c *countFS) Rename(oldname, newname string) error {
	c.note("rename", newname, 0)
	return c.FS.Rename(oldname, newname)
}

func (c *countFS) Remove(name string) error {
	c.note("remove", name, 0)
	return c.FS.Remove(name)
}

func (c *countFS) Truncate(name string, size int64) error {
	c.note("truncate", name, 0)
	return c.FS.Truncate(name, size)
}

func (c *countFS) SyncDir() error {
	c.note("syncdir", "", 0)
	return c.FS.SyncDir()
}

// TestSealCostIsFlat: a seal appends one fixed-width record to the
// manifest log, so what one Seal writes, syncs and renames is the same
// at epoch 10 and at epoch 10 000 of a store that keeps everything (the
// options vpm-node runs with -disk-retention 0). The operations run in
// the order the durability argument needs: the segment's data, its
// directory entry, then the record and the log's sync.
func TestSealCostIsFlat(t *testing.T) {
	c := &countFS{FS: NewMemFS()}
	s, _, err := Open("", Options{FS: c, AutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	const last = 10_000
	for epoch := uint64(0); epoch <= last; epoch++ {
		samples, aggs := testReceipts(epoch, 0)
		if err := s.Append(epoch, 0, samples, aggs); err != nil {
			t.Fatal(err)
		}
		measured := epoch == 10 || epoch == last
		if measured {
			if err := drain(s); err != nil {
				t.Fatal(err)
			}
			c.take()
		}
		if err := s.Seal(epoch); err != nil {
			t.Fatal(err)
		}
		if !measured {
			continue
		}
		if err := drain(s); err != nil {
			t.Fatal(err)
		}
		ops, written := c.take()
		want := []fsOp{{"sync", segmentName(epoch, epoch)}, {"syncdir", ""}, {"write", manifestName}, {"sync", manifestName}}
		if !reflect.DeepEqual(ops, want) || written != recordLen {
			t.Fatalf("Seal(%d): %v writing %d bytes, want %v writing %d", epoch, ops, written, want, recordLen)
		}
	}
	if st := s.StoreStats(); st.Segments != last+1 {
		t.Fatalf("%d segments, want one per epoch", st.Segments)
	}
}

// TestPutReportCostIsFlat: a report is one block appended to its
// epoch's segment, so one PutReport is one write and one sync of that
// file — no temp file, no rename, no directory sync, no new file — and
// the same at epoch 10 and at epoch 10 000 of a store that keeps
// everything.
func TestPutReportCostIsFlat(t *testing.T) {
	mfs := NewMemFS()
	c := &countFS{FS: mfs}
	s, _, err := Open("", Options{FS: c, AutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	const last = 10_000
	for epoch := uint64(0); epoch <= last; epoch++ {
		samples, aggs := testReceipts(epoch, 0)
		if err := s.Append(epoch, 0, samples, aggs); err != nil {
			t.Fatal(err)
		}
		if err := s.Seal(epoch); err != nil {
			t.Fatal(err)
		}
		if epoch != 10 && epoch != last {
			continue
		}
		if err := drain(s); err != nil {
			t.Fatal(err)
		}
		c.take()
		before, _ := mfs.List()
		report := []byte(fmt.Sprintf(`{"epoch":%d}`, epoch))
		if err := s.PutReport(epoch, report); err != nil {
			t.Fatal(err)
		}
		ops, written := c.take()
		seg := segmentName(epoch, epoch)
		want := []fsOp{{"write", seg}, {"sync", seg}}
		if !reflect.DeepEqual(ops, want) || written != int64(blockHeaderLen+len(report)) {
			t.Fatalf("PutReport(%d): %v writing %d bytes, want %v writing %d", epoch, ops, written, want, blockHeaderLen+len(report))
		}
		if after, _ := mfs.List(); !reflect.DeepEqual(after, before) {
			t.Fatalf("PutReport(%d) changed the directory: %d files after, %d before", epoch, len(after), len(before))
		}
	}
}

// TestSealWritesEvidenceOnce: a segment is written once and never
// copied. Over 2 000 epochs of 60 HOPs each (~6 KB an epoch) in a store
// that keeps everything, all the store writes — segments and manifest
// log — comes to at most 1.01 times the segment bytes it keeps.
func TestSealWritesEvidenceOnce(t *testing.T) {
	c := &countFS{FS: NewMemFS()}
	s, _, err := Open("", Options{FS: c, AutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	hops := make([]receipt.HOPID, 60)
	for i := range hops {
		hops[i] = receipt.HOPID(i)
	}
	fillEpochs(t, s, 2000, hops)
	_, written := c.take()
	st := s.StoreStats()
	if ratio := float64(written) / float64(st.Bytes); ratio > 1.01 {
		t.Fatalf("wrote %d bytes to keep %d segment bytes: %.3f×, want at most 1.01×", written, st.Bytes, ratio)
	}
}

// TestManifestLogDamage: a flipped bit anywhere in the log — in any
// complete record, the newest seal's included, or in its magic — makes
// Open refuse the store with ErrCorruptManifest, never un-seal an
// epoch. A record cut short at the tail is the append a crash
// interrupted: Open truncates it, counts its bytes in the boot line,
// and the store goes on appending after it.
func TestManifestLogDamage(t *testing.T) {
	mfs := NewMemFS()
	s, _, err := Open("", Options{FS: mfs, AutoCompact: true, DiskRetention: 3})
	if err != nil {
		t.Fatal(err)
	}
	fillEpochs(t, s, 5, []receipt.HOPID{0})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	log := mfs.files[manifestName]
	kinds := map[byte]int{}
	for r := len(logMagic); r+recordLen <= len(log); r += recordLen {
		kinds[log[r]]++
	}
	if kinds[recSeal] == 0 || kinds[recRetire] == 0 || (len(log)-len(logMagic))%recordLen != 0 {
		t.Fatalf("log of %d bytes holds records %v; want seals and retires, whole", len(log), kinds)
	}
	for bit := 0; bit < 8*len(log); bit++ {
		log[bit/8] ^= 1 << (bit % 8)
		_, _, err := Open("", Options{FS: mfs})
		log[bit/8] ^= 1 << (bit % 8)
		if !errors.Is(err, ErrCorruptManifest) {
			t.Fatalf("bit %d of %d flipped: err = %v, want ErrCorruptManifest", bit, 8*len(log), err)
		}
	}

	next := appendRecord(nil, recSeal, SegmentInfo{FromEpoch: 5, ToEpoch: 5, Bytes: 64})
	for cut := 1; cut < recordLen; cut++ {
		mfs.files[manifestName] = append(append([]byte(nil), log...), next[:cut]...)
		if entries, err := DecodeManifest(mfs.files[manifestName]); err != nil || len(entries) != 3 {
			t.Fatalf("torn after %d bytes: DecodeManifest = %d entries, %v; want the 3 committed", cut, len(entries), err)
		}
		s, stats, err := Open("", Options{FS: mfs})
		if err != nil {
			t.Fatalf("torn after %d bytes: Open: %v", cut, err)
		}
		if stats.TruncatedBytes != int64(cut) || len(mfs.files[manifestName]) != len(log) {
			t.Fatalf("torn after %d bytes: truncated %d, log %d bytes; want %d and %d", cut, stats.TruncatedBytes, len(mfs.files[manifestName]), cut, len(log))
		}
		if got := s.SealedEpochs(); !reflect.DeepEqual(got, []uint64{2, 3, 4}) {
			t.Fatalf("torn after %d bytes: SealedEpochs = %v, want [2 3 4]", cut, got)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s, _, err = Open("", Options{FS: mfs, AutoCompact: true, DiskRetention: 3})
	if err != nil {
		t.Fatal(err)
	}
	fillFrom(t, s, 5, 6, []receipt.HOPID{0})
	s.Close()
	if s, _, err = Open("", Options{FS: mfs}); err != nil {
		t.Fatalf("reopen after appending past a truncated tear: %v", err)
	}
	if got := s.SealedEpochs(); !reflect.DeepEqual(got, []uint64{3, 4, 5}) {
		t.Fatalf("SealedEpochs = %v, want [3 4 5]", got)
	}
}
