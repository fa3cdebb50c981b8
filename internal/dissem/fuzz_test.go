package dissem

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"runtime"
	"testing"

	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// fuzzBundle builds a small valid bundle for seeding.
func fuzzBundle(epoch uint64) *Bundle {
	path := receipt.PathID{
		Key: packet.PathKey{
			Src: packet.MakePrefix(10, 1, 0, 0, 16),
			Dst: packet.MakePrefix(172, 16, 0, 0, 16),
		},
		PrevHOP:   2,
		NextHOP:   4,
		MaxDiffNS: 3_000_000,
	}
	return &Bundle{
		Origin: 3,
		Seq:    9,
		Epoch:  epoch,
		Samples: []receipt.SampleReceipt{{
			Path:    path,
			Samples: []receipt.SampleRecord{{PktID: 1, TimeNS: 2}, {PktID: 3, TimeNS: 4}},
		}},
		Aggs: []receipt.AggReceipt{{
			Path:   path,
			Agg:    receipt.AggID{First: 5, Last: 6},
			PktCnt: 77,
		}},
	}
}

// FuzzDecodeBundle: DecodeBundle must be total — any byte string either
// decodes into a bundle that re-encodes byte-identically (the codec is
// canonical), or returns an error wrapping ErrCorruptBundle; never a
// panic or an allocation the input's length does not justify, whatever
// the headers claim. The retired pre-epoch "VPM1" layout stays in the
// corpus as one more corrupt input.
func FuzzDecodeBundle(f *testing.F) {
	v2 := fuzzBundle(4).Encode()
	f.Add(v2)
	f.Add(append([]byte("VPM1"), v2[4:]...))
	f.Add([]byte{})
	f.Add([]byte("VPM2"))
	f.Add([]byte("VPM1"))
	f.Add([]byte("VPM3----------------------------"))
	f.Add(v2[:len(v2)-5])
	f.Add(append(append([]byte{}, v2...), 0xAA)) // trailing byte
	corrupt := append([]byte{}, v2...)
	corrupt[33] ^= 0xff // inside the first receipt
	f.Add(corrupt)
	// Header claiming 4 billion samples.
	huge := append([]byte{}, v2[:24]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBundle(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptBundle) {
				t.Fatalf("untyped decode error %v (%T)", err, err)
			}
			if b != nil {
				t.Fatal("error with a non-nil bundle")
			}
			return
		}
		re := b.Encode()
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encoding differs:\n in: %x\nout: %x", data, re)
		}
	})
}

// FuzzReadFrames: the client's frame reader is total over whatever a
// server answers — any Content-Type, Content-Length and body end in
// nil, a *FrameError or a *BundleError, never a panic, and the
// response's claims buy no memory beyond a small multiple of the bytes
// that actually arrived. The corpus holds TestHostileFeeds' responses,
// one honest frame and one with a corrupted signature.
func FuzzReadFrames(f *testing.F) {
	pub := NewSigner(seedOf(4)).Public()
	f.Fuzz(func(t *testing.T, contentType string, contentLength int64, body []byte) {
		resp := &http.Response{Header: http.Header{}, ContentLength: contentLength, Body: io.NopCloser(bytes.NewReader(body))}
		resp.Header.Set("Content-Type", contentType)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := readFrames(resp, 4, pub, 0, func(*Bundle) error { return nil })
		runtime.ReadMemStats(&after)
		var fe *FrameError
		var be *BundleError
		if err != nil && !errors.As(err, &fe) && !errors.As(err, &be) {
			t.Fatalf("untyped error %v (%T)", err, err)
		}
		if grew, limit := after.TotalAlloc-before.TotalAlloc, 64<<10+8*uint64(len(body)); grew > limit {
			t.Fatalf("allocated %d bytes reading a %d-byte body (limit %d)", grew, len(body), limit)
		}
	})
}
