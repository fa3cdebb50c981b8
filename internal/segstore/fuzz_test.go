package segstore

// Fuzzing for the durable codecs. Both decoders sit on the recovery
// path — they are fed whatever bytes a crash (or a disk) left behind,
// so totality is a correctness property, not a nicety. The committed
// seed corpus lives under testdata/fuzz/ (valid images, torn cuts,
// corrupted variants); CI's fuzz-smoke job runs both fuzzers for a
// bounded time on every push.

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"vpm/internal/receipt"
)

// fuzzSegmentImage builds a small valid two-block segment for seeding.
func fuzzSegmentImage() []byte {
	data := append([]byte(nil), segMagic[:]...)
	s0, a0 := testReceiptsRaw(3, 1)
	data = AppendBlock(data, 3, 1, s0, a0)
	data = AppendBlock(data, 3, 2, nil, nil)
	return data
}

// testReceiptsRaw mirrors the segstore_test helpers without *testing.T,
// so fuzz seeding can use it.
func testReceiptsRaw(epoch uint64, hop receipt.HOPID) ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	path := receipt.PathID{PrevHOP: hop, NextHOP: hop + 1, MaxDiffNS: 1000}
	samples := []receipt.SampleReceipt{{
		Path:    path,
		Samples: []receipt.SampleRecord{{PktID: epoch*10 + uint64(hop), TimeNS: int64(epoch)}},
	}}
	aggs := []receipt.AggReceipt{{Path: path, Agg: receipt.AggID{First: epoch, Last: epoch + 1}, PktCnt: 5}}
	return samples, aggs
}

// FuzzDecodeSegment: ScanSegment must be total — any byte string
// yields (blocks, valid, err) without panicking, the valid prefix is
// really valid (re-scanning it succeeds and yields the same blocks),
// the decoded blocks re-encode into a scannable image, and the error
// is always one of nil / ErrTornTail / ErrCorruptSegment /
// ErrSegmentVersion. The committed corpus keeps version-1 images
// (fixed-width receipts) as inputs of another version.
func FuzzDecodeSegment(f *testing.F) {
	img := fuzzSegmentImage()
	f.Add(img)
	f.Add([]byte{})
	f.Add(segMagic[:])
	f.Add([]byte("VPMSEG2\nnot a block"))
	f.Add([]byte("VPMSEG1\n")) // an earlier release's empty segment
	f.Add([]byte("WRONGMAG"))
	f.Add(img[:len(img)-3]) // torn mid-block
	f.Add(img[:11])         // torn mid-header
	corrupt := append([]byte(nil), img...)
	corrupt[len(segMagic)+5] ^= 0x40 // flips a header byte
	f.Add(corrupt)
	corruptPayload := append([]byte(nil), img...)
	corruptPayload[len(img)-40] ^= 0x01
	f.Add(corruptPayload)

	f.Fuzz(func(t *testing.T, data []byte) {
		blocks, valid, err := ScanSegment(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		switch {
		case err == nil:
			if valid != len(data) {
				t.Fatalf("clean scan stopped at %d of %d bytes", valid, len(data))
			}
		case errors.Is(err, ErrTornTail), errors.Is(err, ErrCorruptSegment), errors.Is(err, ErrSegmentVersion):
		default:
			t.Fatalf("unexpected error class: %v", err)
		}
		if valid < len(segMagic) {
			return // nothing valid to re-check
		}
		// The valid prefix must re-scan cleanly to the same blocks: this
		// is the contract recovery relies on when it truncates there.
		reBlocks, reValid, reErr := ScanSegment(data[:valid])
		if reErr != nil {
			t.Fatalf("valid prefix does not re-scan: %v", reErr)
		}
		if reValid != valid || !reflect.DeepEqual(reBlocks, blocks) {
			t.Fatalf("re-scan of valid prefix diverged: %d blocks/%d bytes vs %d/%d",
				len(reBlocks), reValid, len(blocks), valid)
		}
		// Decoded blocks re-encode into an image that scans back to the
		// same blocks.
		out := append([]byte(nil), segMagic[:]...)
		for _, blk := range blocks {
			out = AppendBlock(out, blk.Epoch, blk.HOP, blk.Samples, blk.Aggs)
		}
		outBlocks, _, outErr := ScanSegment(out)
		if outErr != nil {
			t.Fatalf("re-encoded image does not scan: %v", outErr)
		}
		if !reflect.DeepEqual(outBlocks, blocks) {
			t.Fatalf("re-encode round trip changed the blocks")
		}
	})
}

// FuzzDecodeManifest: DecodeManifest must be total over both forms —
// the log and the JSON manifest of earlier releases — reject everything
// inconsistent with ErrCorruptManifest, and hand back entries that a
// log re-encodes exactly (decode∘encode = id on the accepted set). A
// log it accepts must stop being accepted when any bit of its last
// complete record flips: the record checksums leave no way to un-seal
// an epoch silently.
func FuzzDecodeManifest(f *testing.F) {
	entries := []SegmentInfo{
		{File: "ep-0000000000000000.seg", FromEpoch: 0, ToEpoch: 0, Bytes: 64, Blocks: 2, CRC: 7, Samples: 2, Aggs: 1},
		{File: "ep-0000000000000001-0000000000000003.seg", FromEpoch: 1, ToEpoch: 3, Bytes: 128, Blocks: 6, CRC: 9, Samples: 4, Aggs: 4},
	}
	validJSON, err := json.MarshalIndent(jsonManifest{Version: manifestVersion, Entries: entries}, "", " ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(validJSON)
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add([]byte(`{"version":1,"entries":[]}`))
	f.Add([]byte(`{"version":2,"entries":[]}`))
	f.Add([]byte(`{"version":1,"entries":[{"file":"a.seg","from_epoch":5,"to_epoch":2,"bytes":64}]}`))
	f.Add([]byte(`{"version":1,"entries":[{"file":"a.seg","from_epoch":0,"to_epoch":3,"bytes":64},{"file":"b.seg","from_epoch":2,"to_epoch":4,"bytes":64}]}`))
	f.Add(bytes.Replace(validJSON, []byte(`"version": 1`), []byte(`"version": 1e1`), 1))
	for _, seed := range manifestLogSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeManifest(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptManifest) {
				t.Fatalf("rejection outside ErrCorruptManifest: %v", err)
			}
			return
		}
		for i, e := range entries {
			if checkEntry(e) != nil {
				t.Fatalf("accepted malformed entry %d: %+v", i, e)
			}
			if i > 0 && e.FromEpoch <= entries[i-1].ToEpoch {
				t.Fatalf("accepted overlapping entries %d and %d", i-1, i)
			}
		}
		back, err := DecodeManifest(encodeManifest(entries))
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v", err)
		}
		// nil and empty are the same store state; only the contents matter.
		if len(back) != len(entries) || (len(entries) > 0 && !reflect.DeepEqual(back, entries)) {
			t.Fatalf("manifest round trip changed the entries")
		}
		if complete := (len(data) - len(logMagic)) / recordLen; bytes.HasPrefix(data, logMagic[:]) && complete > 0 {
			last := len(logMagic) + (complete-1)*recordLen
			bit := int(data[len(data)-1]) % (8 * recordLen)
			flipped := append([]byte(nil), data...)
			flipped[last+bit/8] ^= 1 << (bit % 8)
			if _, err := DecodeManifest(flipped); !errors.Is(err, ErrCorruptManifest) {
				t.Fatalf("bit %d of the last record flipped: err = %v, want ErrCorruptManifest", bit, err)
			}
		}
	})
}

// manifestLogSeeds returns the log images the committed corpus holds
// (testdata/fuzz/FuzzDecodeManifest/seed_log_*), in that order: a
// valid log of seals and a retire, the same with a torn tail, with a
// bit flipped in its last record, with a retire past the last seal
// appended, and with a seal overlapping a live segment appended.
func manifestLogSeeds() [][]byte {
	seal := func(from, to uint64) SegmentInfo {
		return SegmentInfo{FromEpoch: from, ToEpoch: to, Bytes: 64, Blocks: 2, CRC: 7, Samples: 2, Aggs: 1}
	}
	valid := encodeManifest([]SegmentInfo{seal(0, 3), seal(4, 4)})
	valid = appendRecord(valid, recSeal, seal(5, 5))
	valid = appendRecord(valid, recRetire, SegmentInfo{ToEpoch: 3})
	torn := appendRecord(append([]byte(nil), valid...), recSeal, seal(6, 6))
	torn = torn[:len(torn)-recordLen/2]
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-recordLen+9] ^= 0x04
	pastLast := appendRecord(append([]byte(nil), valid...), recRetire, SegmentInfo{ToEpoch: 9})
	overlap := appendRecord(append([]byte(nil), valid...), recSeal, seal(5, 6))
	return [][]byte{valid, torn, flipped, pastLast, overlap}
}
