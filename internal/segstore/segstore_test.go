package segstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// testPath builds a distinct PathID from a small seed.
func testPath(n int) receipt.PathID {
	return receipt.PathID{
		Key: packet.PathKey{
			Src: packet.Prefix{Addr: [4]byte{10, byte(n), 0, 0}, Bits: 16},
			Dst: packet.Prefix{Addr: [4]byte{172, 16, byte(n), 0}, Bits: 24},
		},
		PrevHOP:   receipt.HOPID(n),
		NextHOP:   receipt.HOPID(n + 1),
		MaxDiffNS: 1000,
	}
}

// testReceipts builds per-HOP receipt slices that vary by epoch and
// hop, so cross-contamination between blocks is detectable.
func testReceipts(epoch uint64, hop receipt.HOPID) ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	samples := []receipt.SampleReceipt{{
		Path: testPath(int(hop)),
		Samples: []receipt.SampleRecord{
			{PktID: epoch*1000 + uint64(hop), TimeNS: int64(epoch * 10)},
			{PktID: epoch*1000 + uint64(hop) + 1, TimeNS: int64(epoch*10 + 1)},
		},
	}}
	aggs := []receipt.AggReceipt{{
		Path:   testPath(int(hop)),
		Agg:    receipt.AggID{First: epoch, Last: epoch + uint64(hop)},
		PktCnt: 7 + uint64(hop),
	}}
	return samples, aggs
}

// fillEpochs appends and seals epochs [0, n) across the given hops.
func fillEpochs(t *testing.T, s *Store, n int, hops []receipt.HOPID) {
	t.Helper()
	fillFrom(t, s, 0, uint64(n), hops)
}

// drain waits for s's writer to commit every seal handed to it and
// returns the writer's failure, if any: what PutReport and Close wait
// for, without filing anything.
func drain(s *Store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drainLocked()
}

// fillFrom appends and seals epochs [from, to) across the given hops
// and waits until the seals are committed.
func fillFrom(t *testing.T, s *Store, from, to uint64, hops []receipt.HOPID) {
	t.Helper()
	for epoch := from; epoch < to; epoch++ {
		for _, hop := range hops {
			samples, aggs := testReceipts(epoch, hop)
			if err := s.Append(epoch, hop, samples, aggs); err != nil {
				t.Fatalf("Append(%d, %d): %v", epoch, hop, err)
			}
		}
		if err := s.Seal(epoch); err != nil {
			t.Fatalf("Seal(%d): %v", epoch, err)
		}
	}
	if err := drain(s); err != nil {
		t.Fatalf("committing epochs [%d, %d): %v", from, to, err)
	}
}

func TestBlockRoundTrip(t *testing.T) {
	samples, aggs := testReceipts(3, 2)
	data := append([]byte(nil), segMagic[:]...)
	data = AppendBlock(data, 3, 2, samples, aggs)
	data = AppendBlock(data, 3, 5, nil, nil) // empty block is legal

	blocks, valid, err := ScanSegment(data)
	if err != nil {
		t.Fatalf("ScanSegment: %v", err)
	}
	if valid != len(data) {
		t.Fatalf("valid prefix %d, want %d", valid, len(data))
	}
	if len(blocks) != 2 {
		t.Fatalf("got %d blocks, want 2", len(blocks))
	}
	if blocks[0].Epoch != 3 || blocks[0].HOP != 2 {
		t.Fatalf("block 0 header = (%d, %d), want (3, 2)", blocks[0].Epoch, blocks[0].HOP)
	}
	if !reflect.DeepEqual(blocks[0].Samples, samples) || !reflect.DeepEqual(blocks[0].Aggs, aggs) {
		t.Fatalf("block 0 receipts did not round-trip")
	}
	if len(blocks[1].Samples) != 0 || len(blocks[1].Aggs) != 0 {
		t.Fatalf("empty block came back non-empty")
	}
}

func TestScanSegmentTornAndCorrupt(t *testing.T) {
	samples, aggs := testReceipts(1, 1)
	full := append([]byte(nil), segMagic[:]...)
	full = AppendBlock(full, 1, 1, samples, aggs)
	full = AppendBlock(full, 2, 1, samples, aggs)
	oneBlock := len(segMagic) + blockHeaderLen
	oneBlock += receipt.WireSize(samples, aggs)

	// Every truncation point inside the second block is a torn tail
	// whose valid prefix is exactly the first block.
	for cut := oneBlock + 1; cut < len(full); cut++ {
		blocks, valid, err := ScanSegment(full[:cut])
		if !errors.Is(err, ErrTornTail) {
			t.Fatalf("cut %d: err = %v, want ErrTornTail", cut, err)
		}
		if valid != oneBlock || len(blocks) != 1 {
			t.Fatalf("cut %d: valid=%d blocks=%d, want %d and 1", cut, valid, len(blocks), oneBlock)
		}
	}

	// A flipped payload bit is corruption, not a tear.
	bad := append([]byte(nil), full...)
	bad[oneBlock+blockHeaderLen] ^= 0x40
	if _, _, err := ScanSegment(bad); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("payload bitflip: err = %v, want ErrCorruptSegment", err)
	}
	// A flipped header bit likewise.
	bad = append([]byte(nil), full...)
	bad[oneBlock+4] ^= 0x01
	if _, _, err := ScanSegment(bad); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("header bitflip: err = %v, want ErrCorruptSegment", err)
	}
	// A bad magic is corruption from byte zero.
	bad = append([]byte(nil), full...)
	bad[0] = 'X'
	if _, _, err := ScanSegment(bad); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("bad magic: err = %v, want ErrCorruptSegment", err)
	}
}

// TestOpenRefusesEarlierFormat: a store an earlier release wrote —
// testdata/vpmseg1, sealed epochs 0 and 1 in VPMSEG1 segments of
// fixed-width receipts, a report, a torn tail past epoch 0's committed
// size, the unsealed epoch 2 and a stale manifest temp — is refused
// with ErrSegmentVersion naming both versions, and Open changes no
// file: nothing truncated, swept or removed.
func TestOpenRefusesEarlierFormat(t *testing.T) {
	m, want := loadFixture(t, "vpmseg1")
	if len(want) != 6 {
		t.Fatalf("fixture holds %d files, want 6", len(want))
	}
	s, _, err := Open("", Options{FS: m})
	if !errors.Is(err, ErrSegmentVersion) || s != nil {
		t.Fatalf("Open: store %v, err %v; want ErrSegmentVersion", s, err)
	}
	if errors.Is(err, ErrSegmentIntegrity) || errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("Open: %v reads as damage, not as another version", err)
	}
	if msg := err.Error(); !strings.Contains(msg, `"VPMSEG1"`) || !strings.Contains(msg, `"VPMSEG2"`) {
		t.Fatalf("Open: %q does not name both format versions", msg)
	}
	if !reflect.DeepEqual(m.files, want) {
		t.Fatalf("Open changed the store: %d files after, %d before", len(m.files), len(want))
	}
}

// loadFixture copies the store under testdata/name into a MemFS and
// returns it beside the files as read.
func loadFixture(t *testing.T, name string) (*MemFS, map[string][]byte) {
	t.Helper()
	m := NewMemFS()
	dir := filepath.Join("testdata", name)
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		want[f.Name()] = data
		m.files[f.Name()] = append([]byte(nil), data...)
	}
	return m, want
}

// TestOpenReadsMergedStore: a store an earlier build wrote and merged
// — testdata/merged, a JSON manifest, epochs 0–3 merged into one
// ep-<from>-<to>.seg, epoch 4 in its own segment, a report per epoch —
// opens, and reads back what that build read from it
// (testdata/merged.json: the sealed epochs, every epoch's blocks and
// every report). The files are checked in, so a change to the on-disk
// format, or a reader narrowed to single-epoch segments, fails here
// even when it still reads what it writes. Open converts the manifest
// to a log holding the same entries. Retention then keeps the merged
// file whole, its epochs' reports with it, while it straddles the
// horizon, and drops both once it has aged out whole.
func TestOpenReadsMergedStore(t *testing.T) {
	m, _ := loadFixture(t, "merged")
	s, stats, err := Open("", Options{FS: m, AutoCompact: true, DiskRetention: 3})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if stats.SealedEpochs != 5 || stats.LastSealed != 4 || stats.Reports != 5 ||
		stats.PartialSegments != 0 || stats.OrphansRemoved != 0 || stats.CorruptReports != 0 {
		t.Fatalf("recovery: %s", stats)
	}
	man := s.Manifest()
	if len(man) != 2 || man[0].FromEpoch != 0 || man[0].ToEpoch != 3 {
		t.Fatalf("fixture manifest %+v holds no merged range 0–3", man)
	}
	if log := m.files[manifestName]; !bytes.HasPrefix(log, logMagic[:]) {
		t.Fatalf("Open left the JSON manifest in place: %.40q", log)
	} else if entries, err := DecodeManifest(log); err != nil || !reflect.DeepEqual(entries, man) {
		t.Fatalf("converted log holds %+v (%v), want %+v", entries, err, man)
	}

	data, err := os.ReadFile(filepath.Join("testdata", "merged.json"))
	if err != nil {
		t.Fatal(err)
	}
	type readBack struct {
		SealedEpochs []uint64           `json:"sealed_epochs"`
		Epochs       map[uint64][]Block `json:"epochs"`
		Reports      map[uint64]string  `json:"reports"`
	}
	var want readBack
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := readBack{SealedEpochs: s.SealedEpochs(), Epochs: map[uint64][]Block{}, Reports: map[uint64]string{}}
	for _, epoch := range got.SealedEpochs {
		blocks, err := s.ReadEpoch(epoch)
		if err != nil {
			t.Fatalf("ReadEpoch(%d): %v", epoch, err)
		}
		got.Epochs[epoch] = blocks
		rep, err := s.Report(epoch)
		if err != nil {
			t.Fatalf("Report(%d): %v", epoch, err)
		}
		got.Reports[epoch] = string(rep)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read back differs from what the earlier release read:\n got %+v\nwant %+v", got, want)
	}

	// Epoch 5 moves the horizon to 3: the merged file straddles it and
	// stays whole, and so do its epochs' reports.
	fillFrom(t, s, 5, 6, []receipt.HOPID{0, 1})
	if got := s.SealedEpochs(); !reflect.DeepEqual(got, []uint64{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("SealedEpochs = %v, want the straddling merged range kept", got)
	}
	if got := s.ReportEpochs(); !reflect.DeepEqual(got, []uint64{0, 1, 2, 3, 4}) {
		t.Fatalf("ReportEpochs = %v, want the kept epochs' reports [0 1 2 3 4]", got)
	}
	// Epoch 6 moves it to 4: the merged file has aged out whole.
	fillFrom(t, s, 6, 7, []receipt.HOPID{0, 1})
	if got := s.SealedEpochs(); !reflect.DeepEqual(got, []uint64{4, 5, 6}) {
		t.Fatalf("SealedEpochs = %v, want [4 5 6]", got)
	}
	if got := s.ReportEpochs(); !reflect.DeepEqual(got, []uint64{4}) {
		t.Fatalf("ReportEpochs = %v, want [4]", got)
	}
	if _, ok := m.files["ep-0000000000000000-0000000000000003.seg"]; ok {
		t.Fatal("retention left the aged-out merged segment on disk")
	}
}

// TestOpenSortsLeftoverMergedSegments: testdata/merged with its
// manifest rewritten as a crash would leave it. A merged segment the
// manifest no longer names, all of whose epochs are at or below the
// last seal, was retired before the crash and is an orphan; a segment
// newer than the last seal was in flight and is partial. The file names
// are spelled out, not derived from the code under test.
func TestOpenSortsLeftoverMergedSegments(t *testing.T) {
	const merged, single = "ep-0000000000000000-0000000000000003.seg", "ep-0000000000000004.seg"
	for _, c := range []struct {
		keep             string // the one segment the manifest still names
		left             string // the segment it no longer names
		partial, orphans int    // orphans include the reports of unsealed epochs
	}{
		{keep: single, left: merged, partial: 0, orphans: 1 + 4},
		{keep: merged, left: single, partial: 1, orphans: 1},
	} {
		m, _ := loadFixture(t, "merged")
		entries, err := DecodeManifest(m.files[manifestName])
		if err != nil {
			t.Fatal(err)
		}
		entries = slices.DeleteFunc(entries, func(e SegmentInfo) bool { return e.File != c.keep })
		m.files[manifestName] = encodeManifest(entries)
		_, stats, err := Open("", Options{FS: m})
		if err != nil {
			t.Fatalf("keeping %s: Open: %v", c.keep, err)
		}
		if stats.PartialSegments != c.partial || stats.OrphansRemoved != c.orphans {
			t.Fatalf("keeping %s: %d partial segments and %d orphans, want %d and %d (%s)",
				c.keep, stats.PartialSegments, stats.OrphansRemoved, c.partial, c.orphans, stats)
		}
		if _, ok := m.files[c.left]; ok {
			t.Fatalf("keeping %s: %s left on disk", c.keep, c.left)
		}
	}
}

// TestManifestRoundTrip: entries survive the log, and an inconsistent
// manifest in either form — the log or an earlier release's JSON — is
// ErrCorruptManifest.
func TestManifestRoundTrip(t *testing.T) {
	entries := []SegmentInfo{
		{File: "ep-0000000000000000.seg", FromEpoch: 0, ToEpoch: 0, Bytes: 64, Blocks: 2, CRC: 7, Samples: 4, Aggs: 2},
		{File: "ep-0000000000000001-0000000000000003.seg", FromEpoch: 1, ToEpoch: 3, Bytes: 256, Blocks: 9, CRC: 9, Samples: 18, Aggs: 9},
	}
	asJSON := func(e []SegmentInfo) []byte {
		data, err := json.Marshal(jsonManifest{Version: manifestVersion, Entries: e})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for form, data := range map[string][]byte{"log": encodeManifest(entries), "json": asJSON(entries)} {
		got, err := DecodeManifest(data)
		if err != nil {
			t.Fatalf("%s: DecodeManifest: %v", form, err)
		}
		if !reflect.DeepEqual(got, entries) {
			t.Fatalf("%s: manifest did not round-trip:\n got %+v\nwant %+v", form, got, entries)
		}
	}

	for name, mangle := range map[string]func([]SegmentInfo) []SegmentInfo{
		"overlap":  func(e []SegmentInfo) []SegmentInfo { e[1].FromEpoch = 0; return e },
		"reversed": func(e []SegmentInfo) []SegmentInfo { e[1].ToEpoch = 0; return e },
		"tiny":     func(e []SegmentInfo) []SegmentInfo { e[0].Bytes = 2; return e },
	} {
		bad := mangle(append([]SegmentInfo(nil), entries...))
		for i := range bad {
			bad[i].File = segmentName(bad[i].FromEpoch, bad[i].ToEpoch)
		}
		for form, data := range map[string][]byte{"log": encodeManifest(bad), "json": asJSON(bad)} {
			if _, err := DecodeManifest(data); !errors.Is(err, ErrCorruptManifest) {
				t.Fatalf("%s %s: err = %v, want ErrCorruptManifest", form, name, err)
			}
		}
	}
	// The log derives a file's name from its range; JSON must agree.
	for _, file := range []string{"", "a.seg", segmentName(0, 1)} {
		bad := append([]SegmentInfo(nil), entries...)
		bad[0].File = file
		if _, err := DecodeManifest(asJSON(bad)); !errors.Is(err, ErrCorruptManifest) {
			t.Fatalf("JSON entry named %q: err = %v, want ErrCorruptManifest", file, err)
		}
	}
	if _, err := DecodeManifest([]byte("{not json")); !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("garbage: err = %v, want ErrCorruptManifest", err)
	}
}

func TestStoreSealReopenRoundTrip(t *testing.T) {
	mfs := NewMemFS()
	hops := []receipt.HOPID{0, 1, 2}
	s, stats, err := Open("", Options{FS: mfs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if stats.HasSealed || stats.SealedEpochs != 0 {
		t.Fatalf("fresh store recovered state: %+v", stats)
	}
	fillEpochs(t, s, 4, hops)
	if err := s.PutReport(2, []byte(`{"epoch":2}`)); err != nil {
		t.Fatalf("PutReport: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, stats, err := Open("", Options{FS: mfs})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !stats.HasSealed || stats.LastSealed != 3 || stats.SealedEpochs != 4 || stats.Reports != 1 {
		t.Fatalf("recovery stats: %+v", stats)
	}
	for epoch := uint64(0); epoch < 4; epoch++ {
		blocks, err := s2.ReadEpoch(epoch)
		if err != nil {
			t.Fatalf("ReadEpoch(%d): %v", epoch, err)
		}
		if len(blocks) != len(hops) {
			t.Fatalf("epoch %d: %d blocks, want %d", epoch, len(blocks), len(hops))
		}
		for i, hop := range hops {
			samples, aggs := testReceipts(epoch, hop)
			if blocks[i].HOP != hop || !reflect.DeepEqual(blocks[i].Samples, samples) || !reflect.DeepEqual(blocks[i].Aggs, aggs) {
				t.Fatalf("epoch %d block %d did not round-trip", epoch, i)
			}
		}
	}
	rep, err := s2.Report(2)
	if err != nil || !bytes.Equal(rep, []byte(`{"epoch":2}`)) {
		t.Fatalf("Report(2) = %q, %v", rep, err)
	}
	if _, err := s2.Report(1); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Report(1): err = %v, want fs.ErrNotExist", err)
	}
}

func TestStoreRejectsDoubleCounting(t *testing.T) {
	s, _, err := Open("", Options{FS: NewMemFS()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fillEpochs(t, s, 2, []receipt.HOPID{0})
	samples, aggs := testReceipts(1, 0)
	if err := s.Append(1, 0, samples, aggs); !errors.Is(err, ErrEpochSealed) {
		t.Fatalf("Append to sealed epoch: err = %v, want ErrEpochSealed", err)
	}
	if err := s.Seal(1); !errors.Is(err, ErrEpochSealed) {
		t.Fatalf("double Seal: err = %v, want ErrEpochSealed", err)
	}
	if err := s.PutReport(5, []byte(`{}`)); !errors.Is(err, ErrNotSealed) {
		t.Fatalf("PutReport on unsealed epoch: err = %v, want ErrNotSealed", err)
	}
}

func TestRecoveryDropsPartialEpochAndTornTail(t *testing.T) {
	mfs := NewMemFS()
	s, _, err := Open("", Options{FS: mfs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fillEpochs(t, s, 2, []receipt.HOPID{0, 1})

	// Epoch 2 is mid-flight: one whole block plus a torn half-block,
	// never sealed — the state kill -9 leaves behind when it lands
	// inside the writer's commit of the epoch.
	samples, aggs := testReceipts(2, 0)
	torn := EncodeBlock(2, 1, samples, aggs)
	f, err := mfs.OpenAppend(segmentName(2, 2))
	if err != nil {
		t.Fatalf("OpenAppend: %v", err)
	}
	f.Write(segMagic[:])
	f.Write(EncodeBlock(2, 0, samples, aggs))
	f.Write(torn[:len(torn)-5])
	f.Close()
	// A stale manifest temp and an orphan report ride along.
	tmp, _ := mfs.OpenAppend(manifestName + ".tmp")
	tmp.Write([]byte("half a manifest"))
	tmp.Close()
	orphan, _ := mfs.OpenAppend("rep-0000000000000009.json")
	orphan.Write([]byte(`{"epoch":9}`))
	orphan.Close()

	s2, stats, err := Open("", Options{FS: mfs})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if last, ok := s2.LastSealed(); !ok || last != 1 {
		t.Fatalf("LastSealed = %d, %v; want 1, true", last, ok)
	}
	if stats.PartialSegments != 1 || stats.PartialBlocksDropped != 1 || stats.TornBytes == 0 {
		t.Fatalf("partial-segment stats: %+v", stats)
	}
	if stats.OrphansRemoved != 2 {
		t.Fatalf("OrphansRemoved = %d, want 2 (manifest temp + orphan report)", stats.OrphansRemoved)
	}
	if _, err := s2.ReadEpoch(2); !errors.Is(err, ErrNotSealed) {
		t.Fatalf("ReadEpoch(2) after drop: err = %v, want ErrNotSealed", err)
	}
	if names, _ := mfs.List(); len(names) != 3 { // MANIFEST + 2 sealed segments
		t.Fatalf("surviving files = %v, want manifest and 2 segments", names)
	}

	// The dropped epoch can be rebuilt and sealed — no double-count,
	// no residue.
	if err := s2.Append(2, 0, samples, aggs); err != nil {
		t.Fatalf("re-append dropped epoch: %v", err)
	}
	if err := s2.Seal(2); err != nil {
		t.Fatalf("re-seal dropped epoch: %v", err)
	}
	blocks, err := s2.ReadEpoch(2)
	if err != nil || len(blocks) != 1 {
		t.Fatalf("rebuilt epoch 2: %d blocks, %v; want 1, nil", len(blocks), err)
	}
}

func TestRecoveryTruncatesSealedSegmentOvergrowth(t *testing.T) {
	mfs := NewMemFS()
	s, _, err := Open("", Options{FS: mfs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fillEpochs(t, s, 1, []receipt.HOPID{0})

	// Garbage appended after the seal (a torn post-commit write).
	f, _ := mfs.OpenAppend(segmentName(0, 0))
	f.Write([]byte("garbage past the committed size"))
	f.Close()

	s2, stats, err := Open("", Options{FS: mfs})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if stats.TruncatedBytes == 0 {
		t.Fatalf("TruncatedBytes = 0, want the garbage trimmed: %+v", stats)
	}
	if blocks, err := s2.ReadEpoch(0); err != nil || len(blocks) != 1 {
		t.Fatalf("ReadEpoch(0) after truncation: %d blocks, %v", len(blocks), err)
	}
}

func TestRecoveryRefusesCorruptSealedSegment(t *testing.T) {
	cases := map[string]func(mfs *MemFS){
		"missing segment": func(mfs *MemFS) { mfs.Remove(segmentName(0, 0)) },
		"payload bitflip": func(mfs *MemFS) {
			data, _ := mfs.ReadInto(segmentName(0, 0), nil)
			data[len(data)-1] ^= 0x10
			mfs.Truncate(segmentName(0, 0), 0)
			f, _ := mfs.OpenAppend(segmentName(0, 0))
			f.Write(data)
			f.Close()
		},
		"short file": func(mfs *MemFS) {
			data, _ := mfs.ReadInto(segmentName(0, 0), nil)
			mfs.Truncate(segmentName(0, 0), int64(len(data)-4))
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			mfs := NewMemFS()
			s, _, err := Open("", Options{FS: mfs})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			fillEpochs(t, s, 1, []receipt.HOPID{0})
			corrupt(mfs)
			if _, _, err := Open("", Options{FS: mfs}); !errors.Is(err, ErrSegmentIntegrity) {
				t.Fatalf("err = %v, want ErrSegmentIntegrity", err)
			}
		})
	}

	// A manifest cut inside its magic, or whose one record rotted. (A
	// log cut inside a record after the magic is a torn append, which
	// Open truncates: TestManifestLogDamage.)
	for name, corrupt := range map[string]func(mfs *MemFS){
		"short manifest":   func(mfs *MemFS) { mfs.Truncate(manifestName, 4) },
		"corrupt manifest": func(mfs *MemFS) { mfs.files[manifestName][len(logMagic)+20] ^= 0x01 },
	} {
		t.Run(name, func(t *testing.T) {
			mfs := NewMemFS()
			s, _, err := Open("", Options{FS: mfs})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			fillEpochs(t, s, 1, []receipt.HOPID{0})
			corrupt(mfs)
			if _, _, err := Open("", Options{FS: mfs}); !errors.Is(err, ErrCorruptManifest) {
				t.Fatalf("err = %v, want ErrCorruptManifest", err)
			}
		})
	}
}

func TestStoreOnRealDisk(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fillEpochs(t, s, 3, []receipt.HOPID{0, 1})
	if err := s.PutReport(0, []byte(`{"epoch":0}`)); err != nil {
		t.Fatalf("PutReport: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, stats, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !stats.HasSealed || stats.LastSealed != 2 || stats.Reports != 1 {
		t.Fatalf("recovery stats on disk: %+v", stats)
	}
	blocks, err := s2.ReadEpoch(1)
	if err != nil || len(blocks) != 2 {
		t.Fatalf("ReadEpoch(1): %d blocks, %v", len(blocks), err)
	}
	st := s2.StoreStats()
	if st.SealedEpochs != 3 || st.Segments != 3 || st.Reports != 1 {
		t.Fatalf("StoreStats: %+v", st)
	}
}

func TestManifestEntryCRCMatchesFile(t *testing.T) {
	mfs := NewMemFS()
	s, _, err := Open("", Options{FS: mfs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fillEpochs(t, s, 2, []receipt.HOPID{0, 1})
	for _, e := range s.Manifest() {
		data, err := mfs.ReadInto(e.File, nil)
		if err != nil {
			t.Fatalf("read %s: %v", e.File, err)
		}
		if int64(len(data)) != e.Bytes {
			t.Fatalf("%s: %d bytes on disk, manifest says %d", e.File, len(data), e.Bytes)
		}
		if got := crc32.Checksum(data, crcTable); got != e.CRC {
			t.Fatalf("%s: CRC %08x on disk, manifest says %08x", e.File, got, e.CRC)
		}
	}
}

func TestRecoveryStatsString(t *testing.T) {
	var zero RecoveryStats
	if s := zero.String(); s == "" {
		t.Fatal("empty String()")
	}
	full := RecoveryStats{SealedEpochs: 4, HasSealed: true, LastSealed: 3, Reports: 2, PartialSegments: 1}
	if s := full.String(); s == "" {
		t.Fatal("empty String()")
	}
	_ = fmt.Sprintf("%v", full)
}

// Manifest returns a copy of the committed manifest entries.
func (s *Store) Manifest() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainLocked()
	return append([]SegmentInfo(nil), s.entries...)
}

// ReadEpoch returns the sealed epoch's record blocks in seal order,
// read from its segment's sealed bytes.
// Unsealed epochs return ErrNotSealed; a sealed segment whose bytes
// fail verification returns ErrSegmentIntegrity (match with
// errors.Is).
func (s *Store) ReadEpoch(epoch uint64) ([]Block, error) {
	s.mu.Lock()
	s.drainLocked()
	entry := s.entryForLocked(epoch)
	if entry == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: epoch %d", ErrNotSealed, epoch)
	}
	e := *entry
	s.mu.Unlock()
	data, err := s.fsys.ReadInto(e.File, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrSegmentIntegrity, e.File, err)
	}
	if int64(len(data)) < e.Bytes {
		return nil, fmt.Errorf("%w: %s has %d bytes, manifest committed %d", ErrSegmentIntegrity, e.File, len(data), e.Bytes)
	}
	blocks, _, err := ScanSegment(data[:e.Bytes])
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrSegmentIntegrity, e.File, err)
	}
	if e.FromEpoch == e.ToEpoch {
		return blocks, nil
	}
	var out []Block
	for _, b := range blocks {
		if b.Epoch == epoch {
			out = append(out, b)
		}
	}
	return out, nil
}

// TestParseReportNameAcceptsWhatItDid: parseReportName, which scanned
// with fmt.Sscanf("%016x") before it parsed with strconv, accepts and
// rejects the same names and returns the same epochs — except names
// Sscanf accepted only by stopping early or skipping spaces, whose
// epoch was then not the one the name spells (the name an earlier
// release wrote for it is another name): those are refused now.
func TestParseReportNameAcceptsWhatItDid(t *testing.T) {
	reportName := func(epoch uint64) string { return fmt.Sprintf("rep-%016x.json", epoch) }
	sscanf := func(name string) (uint64, bool) {
		hex := strings.TrimSuffix(strings.TrimPrefix(name, repPrefix), repSuffix)
		var epoch uint64
		if _, err := fmt.Sscanf(hex, "%016x", &epoch); err != nil || len(hex) != 16 {
			return 0, false
		}
		return epoch, true
	}
	same := []string{
		reportName(0), reportName(1), reportName(0xabcdef), reportName(1<<63 + 5), reportName(^uint64(0)),
		"rep-00000000000000A1.json", "rep-FFFFFFFFFFFFFFFF.json", "rep-0b00000000000001.json",
		"rep-1.json", "rep-000000000000000001.json", "rep-.json", "rep-0000000000000001.seg",
		"ep-0000000000000001.json", "rep-+000000000000001.json", "rep--000000000000001.json",
		"rep-g000000000000000.json", "rep-0000000000000001", "",
	}
	for _, name := range same {
		want, wok := sscanf(name)
		got, err := parseReportName(name)
		if (err == nil) != wok || got != want {
			t.Errorf("%q: %d, %v; Sscanf read %d, %v", name, got, err, want, wok)
		}
	}
	misread := []string{
		"rep-0x00000000000001.json", "rep-0X00000000000001.json", "rep-000000000000000g.json",
		"rep-0000_00000000001.json", "rep- 000000000000001.json", "rep-\t000000000000001.json",
		"rep-000000000000001 .json", "rep-00000000000000 1.json", "rep-00000000000001\n1.json",
	}
	for _, name := range misread {
		epoch, ok := sscanf(name)
		if !ok || reportName(epoch) == name {
			t.Fatalf("%q: Sscanf read %d, %v — not a misread", name, epoch, ok)
		}
		if got, err := parseReportName(name); err == nil {
			t.Errorf("%q: accepted as epoch %d", name, got)
		}
	}
}
