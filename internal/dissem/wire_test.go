package dissem

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"vpm/internal/receipt"
	"vpm/internal/stats"
)

// The HTTP feed's wire: exact accounting, the tamper hooks through the
// framed body, and a hostile or broken server on the other end.

// header renders a frame header announcing a payload length and the
// positions skipped before the frame.
func header(payloadLen, skip uint32) []byte {
	hdr := make([]byte, FrameHeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:4], payloadLen)
	binary.LittleEndian.PutUint32(hdr[4:8], skip)
	return hdr
}

// frame renders one frame as the server would, skip positions past the
// previous one.
func frame(sb SignedBundle, skip uint32) []byte {
	return append(append(header(uint32(len(sb.Payload)), skip), sb.Payload...), sb.Sig...)
}

// TestFrameWireAccounting: what crosses the wire is, to the byte, the
// signed payloads and signatures plus FrameHeaderSize per bundle — for
// the whole feed and from any cursor — and Content-Length says so.
func TestFrameWireAccounting(t *testing.T) {
	srv, _, reg := dissemWorld(t, 4)
	rng := stats.NewRNG(0xf4a3e)
	var bundles []*Bundle
	for e := uint64(0); e < 6; e++ {
		b := randBundle(rng, e)
		seq := srv.PublishEpoch(e, b.Samples, b.Aggs)
		bundles = append(bundles, &Bundle{Origin: 4, Seq: seq, Epoch: e, Samples: b.Samples, Aggs: b.Aggs})
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	want := func(keep func(*Bundle) bool) (n int, size int64) {
		for _, b := range bundles {
			if keep(b) {
				n++
				size += int64(FrameHeaderSize + b.WireSize() + ed25519.SignatureSize)
			}
		}
		return n, size
	}
	for _, tc := range []struct {
		query string
		keep  func(*Bundle) bool
	}{
		{"", func(*Bundle) bool { return true }},
		{"?since=2", func(b *Bundle) bool { return b.Seq >= 2 }},
		{"?since=99", func(*Bundle) bool { return false }},
	} {
		resp, err := http.Get(ts.URL + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		n, size := want(tc.keep)
		if int64(len(body)) != size || resp.ContentLength != size {
			t.Errorf("GET %q: body %d bytes, Content-Length %d, want %d (%d frames)", tc.query, len(body), resp.ContentLength, size, n)
		}
		if ct := resp.Header.Get("Content-Type"); ct != FrameContentType {
			t.Errorf("GET %q: Content-Type %q", tc.query, ct)
		}
	}

	// And the client turns those bytes back into the published bundles.
	c := &Client{Registry: reg}
	got, err := c.Fetch(context.Background(), ts.URL, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(bundles) {
		t.Fatalf("fetched %d bundles, published %d", len(got), len(bundles))
	}
	for i := range got {
		if string(got[i].Encode()) != string(bundles[i].Encode()) {
			t.Fatalf("bundle %d changed in transit", i)
		}
	}
}

// hostileFeed serves whatever raw response the handler writes, as HOP 4.
func hostileFeed(t *testing.T, h http.HandlerFunc) (*httptest.Server, *Client) {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	_, _, reg := dissemWorld(t, 4)
	return ts, &Client{Registry: reg}
}

// framed writes body as a framed-feed response of the declared length
// from a server whose retention base is 0.
func framed(w http.ResponseWriter, declared int64, body []byte) {
	w.Header().Set(BaseHeader, "0")
	w.Header().Set("Content-Type", FrameContentType)
	w.Header().Set("Content-Length", strconv.FormatInt(declared, 10))
	w.Write(body)
}

// TestHostileFeeds: every way a response can break the frame format is
// a *FrameError naming the origin and classifying the violation,
// permanent for Retry unless a retry could fix it, delivered promptly
// and without the response's claims buying memory. A well-framed
// payload too short for a bundle header is not a frame violation: it is
// the receive step's to refuse, on this carrier as on the bus.
func TestHostileFeeds(t *testing.T) {
	signer := NewSigner(seedOf(4))
	good := frame(signer.Sign(sampleBundle(4, 0)), 0)
	// An earlier release's frame: a VPM2 payload under a good signature.
	old := signer.Sign(sampleBundle(4, 0)).Payload
	copy(old, "VPM2")
	v2 := frame(SignedBundle{Payload: old, Sig: ed25519.Sign(signer.priv, old)}, 0)
	// typed serves v2 as a framed feed of the given Content-Type.
	typed := func(ct string) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set(BaseHeader, "0")
			w.Header().Set("Content-Type", ct)
			w.Header().Set("Content-Length", strconv.Itoa(len(v2)))
			w.Write(v2)
		}
	}
	// unbased serves good as a framed feed whose X-VPM-Base header is
	// base, or absent when base is empty.
	unbased := func(base string) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			if base != "" {
				w.Header().Set(BaseHeader, base)
			}
			w.Header().Set("Content-Type", FrameContentType)
			w.Header().Set("Content-Length", strconv.Itoa(len(good)))
			w.Write(good)
		}
	}
	cases := []struct {
		name      string
		serve     http.HandlerFunc
		want      error
		frame     int
		permanent bool
		delivered int
		since     uint64
	}{
		{"JSON from a pre-frame server", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`[{"payload":"AAAA","sig":"AAAA"}]`))
		}, ErrNotFramed, -1, true, 0, 0},
		{"no Content-Length", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set(BaseHeader, "0")
			w.Header().Set("Content-Type", FrameContentType)
			w.(http.Flusher).Flush() // forces chunked encoding
			w.Write(good)
		}, ErrNotFramed, -1, true, 0, 0},
		// A server that pruned and stays quiet about it, or no server
		// at all: without a base, frame positions could hide a gap.
		// Version skew: an earlier release's feed is refused at the
		// Content-Type, before its authentic payload could read as a
		// bad bundle from an honest domain — which it would if only
		// the bundle magic had moved.
		{"v3 feed from an earlier release", typed("application/vnd.vpm.bundle-frames.v3"), ErrNotFramed, -1, true, 0, 0},
		{"VPM2 payload under this release's type", typed(FrameContentType), ErrCorruptBundle, 0, true, 0, 0},
		{"no X-VPM-Base", unbased(""), ErrNotFramed, -1, true, 0, 0},
		{"garbled X-VPM-Base", unbased("2x"), ErrNotFramed, -1, true, 0, 0},
		{"4 GiB frame", func(w http.ResponseWriter, _ *http.Request) {
			framed(w, 1<<33, header(0xffffffff, 0))
		}, ErrFrameTooLarge, 0, true, 0, 0},
		{"one byte over MaxBundleBytes", func(w http.ResponseWriter, _ *http.Request) {
			framed(w, 1<<33, header(MaxBundleBytes+1, 0))
		}, ErrFrameTooLarge, 0, true, 0, 0},
		{"short signature", func(w http.ResponseWriter, _ *http.Request) {
			framed(w, int64(len(good)-1), good[:len(good)-1])
		}, ErrBadFrame, 0, true, 0, 0},
		{"frame overruns Content-Length", func(w http.ResponseWriter, _ *http.Request) {
			body := append(append([]byte{}, good...), header(1000, 0)...)
			framed(w, int64(len(body))+100, body)
		}, ErrBadFrame, 1, true, 1, 0},
		{"trailing bytes", func(w http.ResponseWriter, _ *http.Request) {
			body := append(append([]byte{}, good...), 1, 2, 3)
			framed(w, int64(len(body)), body)
		}, ErrBadFrame, 1, true, 1, 0},
		{"truncated mid-header", func(w http.ResponseWriter, _ *http.Request) {
			framed(w, int64(2*len(good)), append(append([]byte{}, good...), good[:5]...))
		}, ErrTruncatedFrame, 1, false, 1, 0},
		{"truncated mid-frame", func(w http.ResponseWriter, _ *http.Request) {
			framed(w, int64(len(good)), good[:len(good)/2])
		}, ErrTruncatedFrame, 0, false, 0, 0},
		// Well framed: the receive step refuses it, as it does on the
		// bus — a *BundleError at position 0, epoch 0 (it claims none).
		{"payload shorter than a bundle header", func(w http.ResponseWriter, _ *http.Request) {
			body := append(header(bundleHeaderSize-1, 0), make([]byte, bundleHeaderSize-1+ed25519.SignatureSize)...)
			framed(w, int64(len(body)), body)
		}, ErrBadSignature, 0, true, 0, 0},
		{"skip wraps the cursor", func(w http.ResponseWriter, _ *http.Request) {
			body := append(append([]byte{}, good...), frame(signer.Sign(sampleBundle(4, 1)), 0xffffffff)...)
			framed(w, int64(len(body)), body) // frame 1 would sit at 2⁶⁴−1
		}, ErrBadFrame, 1, true, 1, math.MaxUint64 - 1<<32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, c := hostileFeed(t, tc.serve)
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			defer cancel()
			delivered, attempts := 0, 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			err := Retry(ctx, RetryPolicy{Attempts: 2, Base: time.Millisecond}, func() error {
				attempts++
				_, err := c.FetchEach(ctx, ts.URL, 4, tc.since, func(*Bundle) error {
					delivered++
					return nil
				})
				return err
			})
			wall := time.Since(start)
			runtime.ReadMemStats(&after)

			var fe *FrameError
			var be *BundleError
			switch {
			case errors.Is(tc.want, ErrBadSignature), errors.Is(tc.want, ErrCorruptBundle):
				if !errors.As(err, &be) || !errors.Is(err, tc.want) || be.Origin != 4 || be.Seq != uint64(tc.frame) || be.Epoch != 0 {
					t.Fatalf("error %v (%T), want a *BundleError for HOP 4 at %d, epoch 0, wrapping %v", err, err, tc.frame, tc.want)
				}
			case !errors.As(err, &fe) || !errors.Is(err, tc.want):
				t.Fatalf("error %v (%T), want a *FrameError wrapping %v", err, err, tc.want)
			case fe.Origin != 4 || fe.Frame != tc.frame:
				t.Errorf("FrameError names origin %v frame %d, want HOP 4 frame %d", fe.Origin, fe.Frame, tc.frame)
			}
			if wantAttempts := map[bool]int{true: 1, false: 2}[tc.permanent]; attempts != wantAttempts {
				t.Errorf("Retry made %d attempts, want %d (permanent=%v)", attempts, wantAttempts, tc.permanent)
			}
			if delivered != tc.delivered*attempts {
				t.Errorf("delivered %d bundles over %d attempts, want %d per attempt", delivered, attempts, tc.delivered)
			}
			if wall > 5*time.Second {
				t.Errorf("took %v to refuse the response", wall)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("allocated %d bytes refusing the response, want < 1 MiB", grew)
			}
		})
	}
}

// TestStalledFeedHonoursContext: a server that announces the largest
// frame the format allows, trickles a little of it and stalls costs the
// fetch its deadline — not a hang, and not the memory it announced.
func TestStalledFeedHonoursContext(t *testing.T) {
	ts, c := hostileFeed(t, func(w http.ResponseWriter, r *http.Request) {
		framed(w, FrameHeaderSize+MaxBundleBytes+ed25519.SignatureSize,
			append(header(MaxBundleBytes, 0), make([]byte, 1000)...))
		w.(http.Flusher).Flush()
		<-r.Context().Done() // until the client hangs up
	})
	c.HTTP = &http.Client{} // no client timeout: only the context bounds the fetch
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := c.FetchEach(ctx, ts.URL, 4, 0, func(*Bundle) error {
		t.Error("delivered a bundle from an incomplete frame")
		return nil
	})
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	var fe *FrameError
	if !errors.As(err, &fe) || !errors.Is(err, ErrTruncatedFrame) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want a *FrameError wrapping ErrTruncatedFrame and context.DeadlineExceeded", err)
	}
	if wall > 2*time.Second {
		t.Fatalf("fetch took %v despite a 100ms deadline", wall)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("allocated %d bytes for a %d-byte announcement of which 1000 arrived", grew, MaxBundleBytes)
	}
}

// TestDecodeBundleBoundsCounts: receipt counts the payload cannot hold
// are refused from the header alone.
func TestDecodeBundleBoundsCounts(t *testing.T) {
	enc := sampleBundle(4, 7).Encode()
	lie := func(nSamples, nAggs uint32) []byte {
		out := append([]byte{}, enc...)
		binary.LittleEndian.PutUint32(out[24:28], nSamples)
		binary.LittleEndian.PutUint32(out[28:32], nAggs)
		return out
	}
	room := uint32(len(enc) - bundleHeaderSize)
	for _, data := range [][]byte{
		lie(0xffffffff, 0xffffffff),
		lie(0xffffffff, 0),
		lie(0, room/uint32(minAggWire)+1),
		lie(room/uint32(minSampleWire)+1, 0),
	} {
		var err error
		allocs := testing.AllocsPerRun(5, func() { _, err = DecodeBundle(data) })
		if !errors.Is(err, ErrCorruptBundle) {
			t.Fatalf("header claiming %d samples / %d aggs in %d bytes: %v", binary.LittleEndian.Uint32(data[24:28]), binary.LittleEndian.Uint32(data[28:32]), room, err)
		}
		if allocs > 8 {
			t.Errorf("refusing an impossible header allocated %.0f times — it must not size anything by the claim", allocs)
		}
	}
	if _, err := DecodeBundle(enc); err != nil {
		t.Fatalf("honest bundle refused: %v", err)
	}
}

// TestReadFramesReusesItsBuffer: every frame of every response is read
// into one pooled buffer. Once a fetch has grown it, one or sixteen
// further multi-frame fetches allocate less than a quarter of one
// frame — nothing that grows with their number — and a buffer a frame
// grew past maxPooledFrameBuffer is dropped, not kept. The byte counts skip
// under the race detector, whose sync.Pool drops buffers at random.
func TestReadFramesReusesItsBuffer(t *testing.T) {
	const frameBytes = 64 << 10
	body := func(payload int, frames int) []byte {
		var out []byte
		for range frames {
			out = append(out, frame(SignedBundle{Payload: make([]byte, payload), Sig: make([]byte, ed25519.SignatureSize)}, 0)...)
		}
		return out
	}
	response := func(body []byte) *http.Response {
		resp := &http.Response{Header: http.Header{}, ContentLength: int64(len(body)), Body: io.NopCloser(bytes.NewReader(body))}
		resp.Header.Set("Content-Type", FrameContentType)
		resp.Header.Set(BaseHeader, "0")
		return resp
	}
	read := func(resp *http.Response) {
		t.Helper()
		if _, err := readFrames(resp, 4, 0, func(p published) (uint64, error) { return p.seq + 1, nil }); err != nil {
			t.Fatal(err)
		}
	}

	read(response(body(maxPooledFrameBuffer, 1)))
	for {
		p, ok := frameBuffers.Get().(*[]byte)
		if !ok {
			break
		}
		if cap(*p) > maxPooledFrameBuffer {
			t.Fatalf("the pool kept a %d-byte buffer; the cap is %d", cap(*p), maxPooledFrameBuffer)
		}
	}

	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	multi := body(frameBytes, 3)
	fetches := func(n int) uint64 {
		resps := make([]*http.Response, n)
		for i := range resps {
			resps[i] = response(multi)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, resp := range resps {
			read(resp)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	fetches(1) // grows the pooled buffer
	for _, n := range []int{1, 16} {
		// The least of three: a collection that empties the pool between
		// two samples costs one regrowth, which a quiet sample does not.
		least := uint64(math.MaxUint64)
		for range 3 {
			least = min(least, fetches(n))
		}
		if least > frameBytes/4 {
			t.Errorf("%d fetches of 3 × %d-byte frames allocated %d bytes after the first; want the buffer reused", n, frameBytes, least)
		}
	}
}

// TestDecodeBundleAllocs: a bundle decodes in a constant number of
// allocations — the bundle, and a slice and a record slab per kind —
// whether it holds 4 receipts or 4 000, and every receipt's records are
// cut with cap == len, so an append to one receipt's records cannot
// reach its neighbour's. The counts skip under the race detector.
func TestDecodeBundleAllocs(t *testing.T) {
	bundle := func(n int) *Bundle {
		b := &Bundle{Origin: 4, Seq: 1, Epoch: 2}
		for i := range n {
			path := receipt.PathID{PrevHOP: 3, NextHOP: 5, MaxDiffNS: int64(i)}
			rs := make([]receipt.SampleRecord, i%3)
			for j := range rs {
				rs[j] = receipt.SampleRecord{PktID: uint64(i<<8 | j), TimeNS: int64(j)}
			}
			b.Samples = append(b.Samples, receipt.SampleReceipt{Path: path, Samples: rs})
			b.Aggs = append(b.Aggs, receipt.AggReceipt{Path: path, Agg: receipt.AggID{First: uint64(i), Last: uint64(i)}, PktCnt: 1, AggTrans: rs})
		}
		return b
	}
	for _, n := range []int{2, 2000} {
		enc := bundle(n).Encode()
		b, err := DecodeBundle(enc)
		if err != nil {
			t.Fatal(err)
		}
		var records [][]receipt.SampleRecord
		for _, s := range b.Samples {
			records = append(records, s.Samples)
		}
		for _, a := range b.Aggs {
			records = append(records, a.AggTrans)
		}
		for i, rs := range records {
			if cap(rs) != len(rs) {
				t.Fatalf("%d receipts: records %d have cap %d, len %d", 2*n, i, cap(rs), len(rs))
			}
		}
		for i := range records[:len(records)-1] {
			next := slices.Clone(records[i+1])
			_ = append(records[i], receipt.SampleRecord{PktID: 0xbad})
			if !slices.Equal(records[i+1], next) {
				t.Fatalf("%d receipts: appending to records %d rewrote records %d", 2*n, i, i+1)
			}
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(20, func() { _, err = DecodeBundle(enc) }); err != nil || allocs > 5 {
			t.Errorf("%d receipts: DecodeBundle allocated %.0f times (err %v); want 5 at most, whatever the count", 2*n, allocs, err)
		}
	}
}
