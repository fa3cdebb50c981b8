package receipt

import (
	"bytes"
	"errors"
	"testing"

	"vpm/internal/packet"
)

// fuzzSampleReceipt is a small valid sample receipt for seeding.
func fuzzSampleReceipt() SampleReceipt {
	return SampleReceipt{
		Path: PathID{
			Key: packet.PathKey{
				Src: packet.MakePrefix(10, 1, 0, 0, 16),
				Dst: packet.MakePrefix(172, 16, 0, 0, 16),
			},
			PrevHOP:   2,
			NextHOP:   4,
			MaxDiffNS: 3_000_000,
		},
		Samples: []SampleRecord{{PktID: 0xdeadbeef, TimeNS: 12345}, {PktID: 7, TimeNS: -9}},
	}
}

// fuzzAggReceipt is a small valid aggregate receipt for seeding.
func fuzzAggReceipt() AggReceipt {
	r := AggReceipt{
		Path:   fuzzSampleReceipt().Path,
		Agg:    AggID{First: 11, Last: 22},
		PktCnt: 1000,
	}
	r.AggTrans = []SampleRecord{{PktID: 22, TimeNS: 5}}
	return r
}

// FuzzDecodeReceipt: Decode must be total — any byte string either
// parses into exactly one receipt whose re-encoding reproduces the
// consumed bytes, or returns an error wrapping ErrCorrupt. It must
// never panic, whatever the header claims about record counts. The
// committed corpus keeps receipts in the earlier fixed-width layout as
// hostile input.
func FuzzDecodeReceipt(f *testing.F) {
	f.Add(fuzzSampleReceipt().AppendBinary(nil))
	f.Add(fuzzAggReceipt().AppendBinary(nil))
	f.Add([]byte{})
	f.Add([]byte{kindSample})
	f.Add([]byte{3, 0, 0, 0})
	trunc := fuzzAggReceipt().AppendBinary(nil)
	f.Add(trunc[:len(trunc)-3])
	// A header claiming 4 billion records backed by 4 bytes.
	huge := append([]byte{kindSample}, make([]byte, prefixesLen+3)...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2, 3, 4)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, a, rest, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error %v (%T)", err, err)
			}
			if s != nil || a != nil {
				t.Fatal("error with a non-nil receipt")
			}
			return
		}
		if (s == nil) == (a == nil) {
			t.Fatalf("decode returned %v/%v receipts", s != nil, a != nil)
		}
		var re []byte
		if s != nil {
			re = s.AppendBinary(nil)
		} else {
			re = a.AppendBinary(nil)
		}
		consumed := data[:len(data)-len(rest)]
		if !bytes.Equal(re, consumed) {
			t.Fatalf("re-encoding differs from consumed bytes:\n in: %x\nout: %x", consumed, re)
		}
	})
}
