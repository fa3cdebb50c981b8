package dissem

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"

	"vpm/internal/receipt"
	"vpm/internal/stats"
)

// The publish hand-off: PublishEpoch returns before its bundle is
// encoded and signed, yet every carrier serves exactly what a
// synchronous Signer.Sign produces, in seq order, from the moment the
// publish has returned.

// handoffBundle is a HOP-4 bundle of n receipts: half sample receipts
// of four records, half aggregates carrying two AggTrans records.
func handoffBundle(rng *stats.RNG, n int) *Bundle {
	b := &Bundle{Origin: 4}
	path := func() receipt.PathID {
		return receipt.PathID{PrevHOP: 3, NextHOP: 5, MaxDiffNS: int64(rng.Uint32())}
	}
	rec := func() receipt.SampleRecord {
		return receipt.SampleRecord{PktID: rng.Uint64(), TimeNS: int64(rng.Uint32())}
	}
	for i := 0; i < n/2; i++ {
		b.Samples = append(b.Samples, receipt.SampleReceipt{
			Path:    path(),
			Samples: []receipt.SampleRecord{rec(), rec(), rec(), rec()},
		})
	}
	for i := n / 2; i < n; i++ {
		b.Aggs = append(b.Aggs, receipt.AggReceipt{
			Path:     path(),
			Agg:      receipt.AggID{First: rng.Uint64(), Last: rng.Uint64()},
			PktCnt:   uint64(rng.Uint32()),
			AggTrans: []receipt.SampleRecord{rec(), rec()},
		})
	}
	return b
}

// TestServedBytesEqualSynchronousSign: bundles fetched straight after
// publishing — over the bus, over HTTP and through SignedBundles — are
// byte for byte the synchronous signatures of the same bundles.
func TestServedBytesEqualSynchronousSign(t *testing.T) {
	srv, signer, reg := dissemWorld(t, 4)
	bus := NewBus()
	bus.Attach(srv)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rng := stats.NewRNG(0x5e1f)
	var want []SignedBundle
	for e := uint64(0); e < 8; e++ {
		b := handoffBundle(rng, 50+20*int(e))
		b.Seq, b.Epoch = e, e+3 // a fresh server numbers from 0
		want = append(want, signer.Sign(b))
		srv.PublishEpoch(b.Epoch, b.Samples, b.Aggs)
	}

	i := 0
	if _, err := bus.CollectSince(reg, 4, 0, func(b *Bundle) error {
		if !bytes.Equal(b.Encode(), want[i].Payload) {
			t.Errorf("bus: bundle %d differs from the synchronous encoding", i)
		}
		i++
		return nil
	}); err != nil || i != len(want) {
		t.Fatalf("bus: delivered %d of %d bundles, err %v", i, len(want), err)
	}

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var wantBody []byte
	for _, sb := range want {
		wantBody = append(wantBody, frame(sb, 0)...)
	}
	if !bytes.Equal(body, wantBody) {
		t.Errorf("http: %d-byte body differs from the %d bytes of synchronously signed frames", len(body), len(wantBody))
	}

	got := srv.SignedBundles("")
	if len(got) != len(want) {
		t.Fatalf("SignedBundles: %d bundles, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Payload, want[i].Payload) || !bytes.Equal(got[i].Sig, want[i].Sig) {
			t.Errorf("SignedBundles: bundle %d differs from Signer.Sign", i)
		}
	}
}

// TestFetchAfterPublishIsSigned: on either carrier, a fetch issued the
// moment PublishEpoch returns delivers that bundle, authenticated.
func TestFetchAfterPublishIsSigned(t *testing.T) {
	srv, _, reg := dissemWorld(t, 4)
	bus := NewBus()
	bus.Attach(srv)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := &Client{Registry: reg}
	b := handoffBundle(stats.NewRNG(7), 200)

	for _, carrier := range []struct {
		name  string
		fetch func(since uint64, fn func(*Bundle) error) error
	}{
		{"bus", func(since uint64, fn func(*Bundle) error) error {
			_, err := bus.CollectSince(reg, 4, since, fn)
			return err
		}},
		{"http", func(since uint64, fn func(*Bundle) error) error {
			_, err := client.FetchEach(context.Background(), ts.URL, 4, since, fn)
			return err
		}},
	} {
		for i := 0; i < 1000; i++ {
			seq := srv.PublishEpoch(uint64(i), b.Samples, b.Aggs)
			var seqs []uint64
			err := carrier.fetch(seq, func(got *Bundle) error {
				seqs = append(seqs, got.Seq)
				return nil
			})
			if err != nil || len(seqs) != 1 || seqs[0] != seq {
				t.Fatalf("%s, publish %d: fetch from seq %d delivered %v, err %v", carrier.name, i, seq, seqs, err)
			}
			srv.DropThrough(seq)
		}
	}
}

// TestPublishSignerExitsWhenQueueDrains: a Server runs at most one
// signer goroutine, and none once every queued bundle is signed — there
// is nothing to Close.
func TestPublishSignerExitsWhenQueueDrains(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, _, _ := dissemWorld(t, 4)
	b := handoffBundle(stats.NewRNG(3), 200)
	drained := func(published int) {
		t.Helper()
		if n := len(srv.SignedBundles("")); n != published {
			t.Fatalf("served %d bundles, published %d", n, published)
		}
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the queue drained, baseline %d", runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < 50; i++ {
		srv.PublishEpoch(uint64(i), b.Samples, b.Aggs)
		if n := runtime.NumGoroutine(); n > baseline+1 {
			t.Fatalf("%d goroutines while one server signs, want at most %d", n, baseline+1)
		}
	}
	drained(50)
	// A later publish starts a fresh signer, which exits the same way.
	srv.PublishEpoch(50, b.Samples, b.Aggs)
	drained(51)
}

// TestPublishHandsOffSigning is the hardware-independent gate on the
// hand-off: on a ~1000-receipt bundle the caller's PublishEpoch costs
// under a quarter of what encoding and signing the bundle costs
// (medians of 50, same process). A PublishEpoch that signs inline
// costs at least as much as Signer.Sign and fails it.
func TestPublishHandsOffSigning(t *testing.T) {
	srv, signer, _ := dissemWorld(t, 4)
	b := handoffBundle(stats.NewRNG(0x9a7e), 1000)
	const n = 50
	publish := make([]time.Duration, n)
	for i := range publish {
		start := time.Now()
		srv.PublishEpoch(uint64(i), b.Samples, b.Aggs)
		publish[i] = time.Since(start)
	}
	srv.SignedBundles("") // the signer finishes before Sign is timed
	sign := make([]time.Duration, n)
	for i := range sign {
		bi := &Bundle{Origin: 4, Seq: uint64(i), Epoch: uint64(i), Samples: b.Samples, Aggs: b.Aggs}
		start := time.Now()
		signer.Sign(bi)
		sign[i] = time.Since(start)
	}
	slices.Sort(publish)
	slices.Sort(sign)
	pub, sig := publish[n/2], sign[n/2]
	t.Logf("PublishEpoch median %v, Signer.Sign median %v (%d-byte payload)", pub, sig, b.WireSize())
	if 4*pub >= sig {
		t.Errorf("PublishEpoch median %v is not under a quarter of Signer.Sign's %v: the caller still pays for signing", pub, sig)
	}
}
