package dissem

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"

	"vpm/internal/packet"
	"vpm/internal/receipt"
)

func seedOf(b byte) [32]byte {
	var s [32]byte
	s[0] = b
	return s
}

func sampleBundle(origin receipt.HOPID, seq uint64) *Bundle {
	path := receipt.PathKeyOf(
		packet.MakePrefix(10, 1, 0, 0, 16),
		packet.MakePrefix(172, 16, 0, 0, 16),
		4, 5, 2_000_000)
	return &Bundle{
		Origin: origin,
		Seq:    seq,
		Samples: []receipt.SampleReceipt{{
			Path:    path,
			Samples: []receipt.SampleRecord{{PktID: 1, TimeNS: 2}, {PktID: 3, TimeNS: 4}},
		}},
		Aggs: []receipt.AggReceipt{{
			Path:     path,
			Agg:      receipt.AggID{First: 9, Last: 11},
			PktCnt:   100,
			AggTrans: []receipt.SampleRecord{{PktID: 11, TimeNS: 50}},
		}},
	}
}

func TestBundleEncodeDecode(t *testing.T) {
	b := sampleBundle(4, 7)
	enc := b.Encode()
	got, err := DecodeBundle(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Origin != 4 || got.Seq != 7 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Samples) != 1 || len(got.Samples[0].Samples) != 2 {
		t.Fatalf("samples mismatch: %+v", got.Samples)
	}
	if len(got.Aggs) != 1 || got.Aggs[0].PktCnt != 100 || len(got.Aggs[0].AggTrans) != 1 {
		t.Fatalf("aggs mismatch: %+v", got.Aggs)
	}
}

func TestBundleDecodeRejectsCorruption(t *testing.T) {
	enc := sampleBundle(4, 7).Encode()
	if _, err := DecodeBundle(enc[:10]); err == nil {
		t.Error("truncated bundle accepted")
	}
	if _, err := DecodeBundle(append(enc, 0xFF)); err == nil {
		t.Error("trailing garbage accepted")
	}
	bad := append([]byte{}, enc...)
	bad[0] = 'X'
	if _, err := DecodeBundle(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestSignVerify(t *testing.T) {
	s := NewSigner(seedOf(1))
	b := sampleBundle(4, 0)
	sb := s.Sign(b)
	got, err := Verify(s.Public(), 4, sb)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 0 || got.Origin != 4 {
		t.Fatalf("verified bundle mismatch: %+v", got)
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	s := NewSigner(seedOf(2))
	sb := s.Sign(sampleBundle(4, 0))
	sb.Payload[30] ^= 0xff
	if _, err := Verify(s.Public(), 4, sb); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered payload: err = %v", err)
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	s1, s2 := NewSigner(seedOf(3)), NewSigner(seedOf(4))
	sb := s1.Sign(sampleBundle(4, 0))
	if _, err := Verify(s2.Public(), 4, sb); !errors.Is(err, ErrBadSignature) {
		t.Errorf("wrong key: err = %v", err)
	}
}

func TestVerifyRejectsOriginSpoof(t *testing.T) {
	// HOP 5's key signs a bundle claiming to be from HOP 4.
	s := NewSigner(seedOf(5))
	sb := s.Sign(sampleBundle(4, 0))
	if _, err := Verify(s.Public(), 5, sb); err == nil {
		t.Error("origin spoof accepted")
	}
}

func TestDeterministicKeys(t *testing.T) {
	a, b := NewSigner(seedOf(6)), NewSigner(seedOf(6))
	if string(a.Public()) != string(b.Public()) {
		t.Error("same seed produced different keys")
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	signer := NewSigner(seedOf(7))
	srv := NewServer(4, signer)
	b := sampleBundle(4, 0)
	srv.PublishEpoch(0, b.Samples, b.Aggs)
	srv.PublishEpoch(0, nil, b.Aggs)
	if srv.BundleCount() != 2 {
		t.Fatalf("bundle count %d", srv.BundleCount())
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()

	client := &Client{Registry: Registry{4: signer.Public()}}
	got, err := client.Fetch(context.Background(), ts.URL, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("fetched %d bundles, want 2", len(got))
	}
	if len(got[0].Samples) != 1 || len(got[1].Samples) != 0 {
		t.Fatal("bundle contents mismatch")
	}

	// Incremental fetch.
	got, err = client.Fetch(context.Background(), ts.URL, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("since-fetch returned %d bundles", len(got))
	}

	// Past the end.
	got, err = client.Fetch(context.Background(), ts.URL, 4, 10)
	if err != nil || len(got) != 0 {
		t.Fatalf("past-end fetch: %v, %d bundles", err, len(got))
	}
}

func TestHTTPRejectsUnregisteredOrigin(t *testing.T) {
	signer := NewSigner(seedOf(8))
	srv := NewServer(4, signer)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := &Client{Registry: Registry{}}
	if _, err := client.Fetch(context.Background(), ts.URL, 4, 0); err == nil {
		t.Error("fetch without registered key accepted")
	}
}

func TestHTTPRejectsForgedServer(t *testing.T) {
	// Server signs with a key other than the one the client
	// registered for HOP 4: every bundle must be rejected.
	evil := NewSigner(seedOf(9))
	srv := NewServer(4, evil)
	b := sampleBundle(4, 0)
	srv.PublishEpoch(0, b.Samples, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	legit := NewSigner(seedOf(10))
	client := &Client{Registry: Registry{4: legit.Public()}}
	if _, err := client.Fetch(context.Background(), ts.URL, 4, 0); err == nil {
		t.Error("forged bundles accepted")
	}
}

func TestHTTPBadRequests(t *testing.T) {
	srv := NewServer(4, NewSigner(seedOf(11)))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("POST status %d, want 405", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "?since=garbage")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad since status %d, want 400", resp.StatusCode)
	}
}

func TestFetchEachStreams(t *testing.T) {
	signer := NewSigner(seedOf(22))
	srv := NewServer(4, signer)
	b := sampleBundle(4, 0)
	for i := 0; i < 5; i++ {
		srv.PublishEpoch(0, b.Samples, b.Aggs)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := &Client{Registry: Registry{4: signer.Public()}}

	var seqs []uint64
	next, err := client.FetchEach(context.Background(), ts.URL, 4, 1, func(b *Bundle) error {
		seqs = append(seqs, b.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 4 || seqs[0] != 1 || seqs[3] != 4 || next != 5 {
		t.Fatalf("streamed seqs %v up to cursor %d, want 1..4 and 5", seqs, next)
	}

	// A callback error aborts the stream, the cursor on the refused
	// bundle.
	calls := 0
	sentinel := context.Canceled
	next, err = client.FetchEach(context.Background(), ts.URL, 4, 0, func(*Bundle) error {
		calls++
		if calls == 2 {
			return sentinel
		}
		return nil
	})
	if err != sentinel || calls != 2 || next != 1 {
		t.Fatalf("abort: err=%v calls=%d cursor=%d", err, calls, next)
	}

	// Past the end: an empty body; zero callbacks, the cursor holds.
	next, err = client.FetchEach(context.Background(), ts.URL, 4, 99, func(*Bundle) error {
		t.Error("callback on empty stream")
		return nil
	})
	if err != nil || next != 99 {
		t.Fatalf("past the end: cursor %d, err %v", next, err)
	}
}

func TestBus(t *testing.T) {
	signer := NewSigner(seedOf(12))
	srv := NewServer(4, signer)
	b := sampleBundle(4, 0)
	srv.PublishEpoch(0, b.Samples, b.Aggs)
	bus := NewBus()
	bus.Attach(srv)
	reg := Registry{4: signer.Public()}
	var got []*Bundle
	collect := func(b *Bundle) error {
		got = append(got, b)
		return nil
	}
	next, err := bus.CollectSince(reg, 4, 0, collect)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || next != 1 {
		t.Fatalf("collected %d bundles, cursor %d", len(got), next)
	}
	if _, err := bus.CollectSince(reg, 9, 0, collect); err == nil {
		t.Error("missing HOP accepted")
	}
	if _, err := bus.CollectSince(Registry{}, 4, 0, collect); err == nil {
		t.Error("missing key accepted")
	}
}

func TestBundleEpochRoundTrip(t *testing.T) {
	b := sampleBundle(4, 7)
	b.Epoch = 12345
	got, err := DecodeBundle(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 12345 {
		t.Fatalf("epoch lost in encoding: got %d", got.Epoch)
	}
	// The epoch is under the signature: flipping it must break
	// verification.
	signer := NewSigner(seedOf(4))
	sb := signer.Sign(b)
	sb.Payload[16] ^= 1 // first epoch byte
	if _, err := Verify(signer.Public(), 4, sb); err == nil {
		t.Fatal("tampered epoch accepted")
	}
}

func TestCollectSinceCursor(t *testing.T) {
	signer := NewSigner(seedOf(5))
	srv := NewServer(2, signer)
	reg := Registry{2: signer.Public()}
	bus := NewBus()
	bus.Attach(srv)

	srv.PublishEpoch(0, sampleBundle(2, 0).Samples, nil)
	srv.PublishEpoch(0, sampleBundle(2, 0).Samples, nil)

	var seen []uint64
	next, err := bus.CollectSince(reg, 2, 0, func(b *Bundle) error {
		seen = append(seen, b.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != 2 || len(seen) != 2 {
		t.Fatalf("first drain: next=%d seen=%v", next, seen)
	}

	// Nothing new: the cursor holds and fn is not called.
	next, err = bus.CollectSince(reg, 2, next, func(b *Bundle) error {
		t.Fatalf("unexpected bundle %d", b.Seq)
		return nil
	})
	if err != nil || next != 2 {
		t.Fatalf("idle drain: next=%d err=%v", next, err)
	}

	// A new publication is seen exactly once.
	srv.PublishEpoch(1, nil, sampleBundle(2, 0).Aggs)
	seen = nil
	next, err = bus.CollectSince(reg, 2, next, func(b *Bundle) error {
		seen = append(seen, b.Seq)
		return nil
	})
	if err != nil || next != 3 || len(seen) != 1 || seen[0] != 2 {
		t.Fatalf("incremental drain: next=%d seen=%v err=%v", next, seen, err)
	}
}

func TestDropThroughKeepsCursorSemantics(t *testing.T) {
	signer := NewSigner(seedOf(6))
	srv := NewServer(4, signer)
	reg := Registry{4: signer.Public()}
	bus := NewBus()
	bus.Attach(srv)

	for e := uint64(0); e < 3; e++ {
		srv.PublishEpoch(e, sampleBundle(4, 0).Samples, nil)
	}
	next, err := bus.CollectSince(reg, 4, 0, func(*Bundle) error { return nil })
	if err != nil || next != 3 {
		t.Fatalf("drain: next=%d err=%v", next, err)
	}
	srv.DropThrough(next - 1)
	if srv.BundleCount() != 0 {
		t.Fatalf("server still retains %d bundles after drop", srv.BundleCount())
	}

	// Publication continues with stable sequence numbers; the old
	// cursor sees exactly the new bundle.
	srv.PublishEpoch(3, nil, sampleBundle(4, 0).Aggs)
	var seqs []uint64
	next, err = bus.CollectSince(reg, 4, next, func(b *Bundle) error {
		seqs = append(seqs, b.Seq)
		return nil
	})
	if err != nil || next != 4 || len(seqs) != 1 || seqs[0] != 3 {
		t.Fatalf("post-drop drain: next=%d seqs=%v err=%v", next, seqs, err)
	}

	// A failing callback leaves the cursor on the failed bundle.
	srv.PublishEpoch(4, sampleBundle(4, 0).Samples, nil)
	boom := fmt.Errorf("boom")
	next2, err := bus.CollectSince(reg, 4, next, func(*Bundle) error { return boom })
	if err == nil || next2 != next {
		t.Fatalf("failed callback advanced cursor: next=%d err=%v", next2, err)
	}

	// HTTP ?since past the dropped range still serves the retained log.
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &Client{Registry: reg}
	got := 0
	next, err = c.FetchEach(context.Background(), ts.URL, 4, 3, func(*Bundle) error {
		got++
		return nil
	})
	if err != nil || got != 2 || next != 5 {
		t.Fatalf("since=3 fetch after drop returned %d bundles up to %d (err %v), want 2 up to 5", got, next, err)
	}
}

// TestBundleAppendEncode: AppendEncode into a reused scratch buffer is
// byte-identical to Encode, WireSize predicts the exact length, and
// once the scratch reached its high-water mark re-encoding allocates
// nothing.
func TestBundleAppendEncode(t *testing.T) {
	b := sampleBundle(4, 7)
	b.Epoch = 3
	want := b.Encode()
	if len(want) != b.WireSize() {
		t.Fatalf("WireSize %d, encoded length %d", b.WireSize(), len(want))
	}
	scratch := make([]byte, 0, b.WireSize())
	got := b.AppendEncode(scratch)
	if !bytes.Equal(got, want) {
		t.Fatal("AppendEncode differs from Encode")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if out := b.AppendEncode(scratch[:0]); len(out) != len(want) {
			t.Fatal("short encode")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state AppendEncode allocated %.1f times per bundle", allocs)
	}
}
