package dissem

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"io"
	"math"
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
// server answers — any Content-Type, Content-Length, retention base
// (empty: no BaseHeader), cursor and body end in nil, a *FrameError, a
// *BundleError or a *GapError, never a panic — and it only moves the
// cursor forward: every frame is handed on at a position ≥ since,
// strictly above the one before and below 2⁶⁴−1, and the returned
// cursor is one past the last position delivered (since when none
// was). The response's claims buy no memory beyond a small multiple of
// the bytes that actually arrived, headers included, also with the
// frame buffer pool warmed by an honest multi-frame response just
// before, as a verifier's earlier fetches leave it. The corpus holds
// TestHostileFeeds' responses, honest frames with and without skips,
// one with a corrupted signature, a skip that wraps the cursor, a gap,
// a missing or garbled base, a 10 KB Content-Type, and signed payloads
// the one-HOP feed must refuse: two bundles (one from a HOP outside the
// key's group), a truncated second bundle, zero bundles, and two
// bundles tagged with different epochs.
func FuzzReadFrames(f *testing.F) {
	pub := NewSigner(seedOf(4)).Public()
	group := []receipt.HOPID{4}
	var warmBody []byte
	for range 3 {
		warmBody = append(warmBody, frame(SignedBundle{Payload: make([]byte, 16<<10), Sig: make([]byte, ed25519.SignatureSize)}, 0)...)
	}
	f.Fuzz(func(t *testing.T, contentType string, contentLength int64, base string, since uint64, body []byte) {
		warm := &http.Response{Header: http.Header{}, ContentLength: int64(len(warmBody)), Body: io.NopCloser(bytes.NewReader(warmBody))}
		warm.Header.Set("Content-Type", FrameContentType)
		warm.Header.Set(BaseHeader, "0")
		if _, err := readFrames(warm, 4, 0, func(p published) (uint64, error) { return p.seq + 1, nil }); err != nil {
			t.Fatal(err)
		}
		resp := &http.Response{Header: http.Header{}, ContentLength: contentLength, Body: io.NopCloser(bytes.NewReader(body))}
		resp.Header.Set("Content-Type", contentType)
		if base != "" {
			resp.Header.Set(BaseHeader, base)
		}
		floor, delivered := since, since
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		next, err := readFrames(resp, 4, since, func(p published) (uint64, error) {
			if p.seq < floor || p.seq == math.MaxUint64 {
				t.Fatalf("frame handed on at position %d, want ≥ %d and < 2⁶⁴−1", p.seq, floor)
			}
			floor = p.seq + 1
			n, err := receive(pub, 4, group, p, func(*Bundle) error { return nil }, nil)
			if err == nil {
				delivered = n
			}
			return n, err
		})
		runtime.ReadMemStats(&after)
		var fe *FrameError
		var be *BundleError
		var gap *GapError
		if err != nil && !errors.As(err, &fe) && !errors.As(err, &be) && !errors.As(err, &gap) {
			t.Fatalf("untyped error %v (%T)", err, err)
		}
		if next != delivered {
			t.Fatalf("returned cursor %d, want %d: one past the last position delivered from since %d", next, delivered, since)
		}
		// The headers arrived too: a refusal may quote them. The race
		// detector's instrumentation allocates beside the reader, about
		// an eighth more on a 10 KB Content-Type, so it gets twice the
		// room; the bound that holds the reader is the one without it.
		arrived := uint64(len(contentType) + len(base) + len(body))
		limit := 64<<10 + 8*arrived
		if raceEnabled {
			limit *= 2
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
			t.Fatalf("allocated %d bytes reading a %d-byte response (limit %d)", grew, arrived, limit)
		}
	})
}
