package dissem

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vpm/internal/receipt"
)

// dissemWorld wires one signing server with a registry.
func dissemWorld(t *testing.T, hop receipt.HOPID) (*Server, *Signer, Registry) {
	t.Helper()
	signer := NewSigner(seedOf(byte(hop)))
	srv := NewServer(hop, signer)
	reg := Registry{hop: signer.Public()}
	return srv, signer, reg
}

// TestFetchTimeoutOnHungServer: the regression for the fetch-stall
// bug — a Client with neither an HTTP client nor a context deadline
// must not hang forever on a server that never responds.
func TestFetchTimeoutOnHungServer(t *testing.T) {
	block := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		<-block // never responds
	}))
	defer hung.Close()
	defer close(block) // release the handler before Close waits on it

	old := DefaultFetchTimeout
	DefaultFetchTimeout = 150 * time.Millisecond
	defer func() { DefaultFetchTimeout = old }()

	_, _, reg := dissemWorld(t, 4)
	c := &Client{Registry: reg}
	start := time.Now()
	_, err := c.FetchEach(context.Background(), hung.URL, 4, 0, func(*Bundle) error { return nil })
	if err == nil {
		t.Fatal("fetch from a hung server succeeded")
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("fetch took %v: the default timeout did not engage", wall)
	}
}

// TestFetchCtxDeadline: a context deadline aborts a hung fetch even
// when the caller supplied its own timeout-less HTTP client.
func TestFetchCtxDeadline(t *testing.T) {
	block := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		<-block
	}))
	defer hung.Close()
	defer close(block) // release the handler before Close waits on it
	_, _, reg := dissemWorld(t, 4)
	c := &Client{Registry: reg, HTTP: &http.Client{}}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.FetchEach(ctx, hung.URL, 4, 0, func(*Bundle) error { return nil }); err == nil {
		t.Fatal("fetch outlived its context deadline")
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("fetch took %v despite a 100ms deadline", wall)
	}
}

// TestPrunedCursorGapHTTP: the regression for the silent-clamp bug —
// a cursor below the server's pruned base gets a typed GapError (via
// the X-VPM-Base header), not a silently shortened stream.
func TestPrunedCursorGapHTTP(t *testing.T) {
	srv, _, reg := dissemWorld(t, 4)
	for seq := 0; seq < 4; seq++ {
		b := sampleBundle(4, uint64(seq))
		srv.PublishEpoch(0, b.Samples, b.Aggs)
	}
	srv.DropThrough(1) // bundles 0 and 1 are gone; base is now 2
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := &Client{Registry: reg}
	next, err := c.FetchEach(context.Background(), ts.URL, 4, 0, func(*Bundle) error {
		t.Fatal("bundle delivered before the gap was surfaced")
		return nil
	})
	var gap *GapError
	if !errors.As(err, &gap) || next != 0 {
		t.Fatalf("want GapError and the cursor held at 0, got %v at %d", err, next)
	}
	if gap.Origin != 4 || gap.Since != 0 || gap.Base != 2 {
		t.Fatalf("gap misdescribed: %+v", gap)
	}
	// Resuming from the advertised base acknowledges the loss and
	// serves the rest.
	n := 0
	next, err = c.FetchEach(context.Background(), ts.URL, 4, gap.Base, func(*Bundle) error { n++; return nil })
	if err != nil || next != 4 {
		t.Fatalf("resume from base: next=%d err=%v", next, err)
	}
	if n != 2 {
		t.Fatalf("resumed fetch returned %d bundles, want 2", n)
	}
}

// TestPrunedCursorGapBus: same contract on the in-memory bus —
// CollectSince surfaces the gap instead of skipping it.
func TestPrunedCursorGapBus(t *testing.T) {
	srv, _, reg := dissemWorld(t, 4)
	for seq := 0; seq < 4; seq++ {
		b := sampleBundle(4, uint64(seq))
		srv.PublishEpoch(0, b.Samples, b.Aggs)
	}
	srv.DropThrough(1)
	bus := NewBus()
	bus.Attach(srv)

	_, err := bus.CollectSince(reg, 4, 0, func(*Bundle) error { return nil })
	var gap *GapError
	if !errors.As(err, &gap) {
		t.Fatalf("want GapError, got %v", err)
	}
	if gap.Base != 2 {
		t.Fatalf("gap base %d, want 2", gap.Base)
	}
	next, err := bus.CollectSince(reg, 4, gap.Base, func(*Bundle) error { return nil })
	if err != nil || next != 4 {
		t.Fatalf("resume from base: next=%d err=%v", next, err)
	}
}

// corruptSigTamper breaks the signature of every bundle of one epoch.
type corruptSigTamper struct{ epoch uint64 }

func (corruptSigTamper) Name() string { return "corrupt-sig" }
func (c corruptSigTamper) Serve(_ string, _, epoch uint64, sb SignedBundle) (SignedBundle, bool) {
	if epoch != c.epoch {
		return sb, true
	}
	bad := append([]byte(nil), sb.Sig...)
	bad[0] ^= 0xff
	return SignedBundle{Payload: sb.Payload, Sig: bad}, true
}

// TestBundleErrorCarriesSeq: a verification failure mid-stream is a
// typed BundleError naming origin, server position and epoch — on the
// bus and over HTTP alike, permanent for Retry on both — so a cursor
// consumer can classify it and skip the poisoned bundle.
func TestBundleErrorCarriesSeq(t *testing.T) {
	srv, _, reg := dissemWorld(t, 4)
	for e := uint64(5); e < 8; e++ { // positions 0, 1, 2
		b := sampleBundle(4, 0)
		srv.PublishEpoch(e, b.Samples, b.Aggs)
	}
	srv.SetTamper(corruptSigTamper{epoch: 6})
	bus := NewBus()
	bus.Attach(srv)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := &Client{Registry: reg}
	for _, carrier := range []struct {
		name    string
		collect func(since uint64, fn func(*Bundle) error) (uint64, error)
	}{
		{"bus", func(since uint64, fn func(*Bundle) error) (uint64, error) {
			return bus.CollectSince(reg, 4, since, fn)
		}},
		{"http", func(since uint64, fn func(*Bundle) error) (uint64, error) {
			return client.FetchEach(context.Background(), ts.URL, 4, since, fn)
		}},
	} {
		var seqs []uint64
		record := func(b *Bundle) error {
			seqs = append(seqs, b.Seq)
			return nil
		}
		next, err := carrier.collect(0, record)
		var be *BundleError
		var perm *PermanentError
		if !errors.As(err, &be) || !errors.As(err, &perm) {
			t.Fatalf("%s: want a permanent BundleError, got %v", carrier.name, err)
		}
		if be.Origin != 4 || be.Seq != 1 || be.Epoch != 6 || !errors.Is(err, ErrBadSignature) || len(seqs) != 1 || next != 1 {
			t.Fatalf("%s: bundle error misdescribed: %+v after delivering %v, cursor %d", carrier.name, be, seqs, next)
		}
		// Skipping past it drains cleanly.
		seqs = nil
		if next, err := carrier.collect(be.Seq+1, record); err != nil || len(seqs) != 1 || seqs[0] != 2 || next != 3 {
			t.Fatalf("%s: skipping the poisoned bundle: delivered %v up to %d, err %v", carrier.name, seqs, next, err)
		}
	}
}
