package dissem

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"
	"weak"

	"vpm/internal/stats"
)

// Authentication on arrival: once a bus consumer has fetched from a
// server, the server's signer verifies each later bundle under that
// consumer's registry key and decodes it, and the consumer's fetch only
// checks. These tests pin the trust rule: nothing is accepted on a
// verification under another key, or of bytes other than the ones
// served.

// collectSeqs collects from since as viewer and returns the seqs
// delivered, the next cursor and the error.
func collectSeqs(bus *Bus, viewer string, reg Registry, since uint64) ([]uint64, uint64, error) {
	var seqs []uint64
	next, err := bus.CollectSinceAs(viewer, reg, 4, since, func(b *Bundle) error {
		seqs = append(seqs, b.Seq)
		return nil
	})
	return seqs, next, err
}

// publishSigned publishes n HOP-4 bundles and waits for their
// signatures (and any verification ahead).
func publishSigned(srv *Server, n int) {
	for i := 0; i < n; i++ {
		b := sampleBundle(4, 0)
		srv.PublishEpoch(uint64(i), b.Samples, b.Aggs)
	}
	srv.SignedBundles("")
}

// verifiedAhead waits for the signer and reports, per retained bundle,
// whether it verified the bundle ahead.
func verifiedAhead(srv *Server) []bool {
	srv.SignedBundles("")
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	out := make([]bool, len(srv.bundles))
	for i, e := range srv.bundles {
		out[i] = e.verified != nil
	}
	return out
}

// TestAheadNeverTrustsAnotherConsumersKey: the signer verifies under
// the first bus consumer's key only, and a consumer whose registry holds
// a different key never accepts on the strength of it — in either
// order of first fetch.
func TestAheadNeverTrustsAnotherConsumersKey(t *testing.T) {
	const n = 5
	wrong := Registry{4: NewSigner(seedOf(99)).Public()}
	for _, tc := range []struct {
		name      string
		first     Registry
		wantAhead bool
	}{
		{"right key first", nil, true},
		{"wrong key first", wrong, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _, reg := dissemWorld(t, 4)
			if tc.first == nil {
				tc.first = reg
			}
			bus := NewBus()
			bus.Attach(srv)
			if _, _, err := collectSeqs(bus, "first", tc.first, 0); err != nil {
				t.Fatal(err)
			}
			publishSigned(srv, n)
			if got := srv.aheadChecks.Load(); got != n {
				t.Fatalf("signer verified %d bundles ahead, want %d", got, n)
			}
			for i, ok := range verifiedAhead(srv) {
				if ok != tc.wantAhead {
					t.Fatalf("bundle %d verified ahead: %v, want %v", i, ok, tc.wantAhead)
				}
			}
			// The wrong-key consumer is refused every bundle, by seq.
			for seq := uint64(0); seq < n; seq++ {
				seqs, next, err := collectSeqs(bus, "wrong", wrong, seq)
				var be *BundleError
				if !errors.As(err, &be) || be.Seq != seq || !errors.Is(err, ErrBadSignature) || len(seqs) != 0 || next != seq {
					t.Fatalf("wrong key from seq %d: delivered %v, next %d, err %v; want a BundleError at %d", seq, seqs, next, err, seq)
				}
			}
			// The right-key consumer accepts every bundle.
			if seqs, next, err := collectSeqs(bus, "right", reg, 0); err != nil || len(seqs) != n || next != n {
				t.Fatalf("right key: delivered %v, next %d, err %v; want all %d", seqs, next, err, n)
			}
		})
	}
}

// TestAheadIgnoredUnderTamper: bundles verified ahead and then served
// through a corrupting tamper are refused exactly as without
// verification ahead — a BundleError naming the same seq and epoch —
// and are acceptable again once the tamper is removed.
func TestAheadIgnoredUnderTamper(t *testing.T) {
	srv, _, reg := dissemWorld(t, 4)
	bus := NewBus()
	bus.Attach(srv)
	if _, err := bus.CollectSince(reg, 4, 0, func(*Bundle) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for e := uint64(5); e < 8; e++ { // seqs 0, 1, 2
		b := sampleBundle(4, 0)
		srv.PublishEpoch(e, b.Samples, b.Aggs)
	}
	if got := verifiedAhead(srv); !slices.Equal(got, []bool{true, true, true}) {
		t.Fatalf("verified ahead: %v, want all three", got)
	}
	srv.SetTamper(corruptSigTamper{epoch: 6})
	seqs, next, err := collectSeqs(bus, "", reg, 0)
	var be *BundleError
	if !errors.As(err, &be) || be.Origin != 4 || be.Seq != 1 || be.Epoch != 6 || !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered feed: err %v, want a BundleError for seq 1 epoch 6", err)
	}
	if !slices.Equal(seqs, []uint64{0}) || next != 1 {
		t.Fatalf("tampered feed: delivered %v, next %d; want [0] and 1", seqs, next)
	}
	srv.SetTamper(nil)
	if seqs, _, err := collectSeqs(bus, "", reg, 0); err != nil || !slices.Equal(seqs, []uint64{0, 1, 2}) {
		t.Fatalf("tamper removed: delivered %v, err %v; want [0 1 2]", seqs, err)
	}
}

// TestAheadOnlyForBusConsumers: a server fetched only over HTTP — every
// fleet collector — verifies nothing ahead; its first bus consumer
// starts verification for the bundles signed after it.
func TestAheadOnlyForBusConsumers(t *testing.T) {
	srv, _, reg := dissemWorld(t, 4)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := &Client{Registry: reg}
	for round := 0; round < 3; round++ {
		publishSigned(srv, 2)
		if _, err := client.Fetch(context.Background(), ts.URL, 4, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.aheadChecks.Load(); got != 0 {
		t.Fatalf("an HTTP-only server verified %d bundles ahead", got)
	}
	bus := NewBus()
	bus.Attach(srv)
	if _, err := bus.CollectSince(reg, 4, 0, func(*Bundle) error { return nil }); err != nil {
		t.Fatal(err)
	}
	publishSigned(srv, 1)
	if got := srv.aheadChecks.Load(); got != 1 {
		t.Fatalf("after a bus consumer: %d bundles verified ahead, want 1", got)
	}
}

// TestBusAuthenticatesAhead is the hardware-independent gate on
// authentication on arrival: for a ~100-receipt bundle published after
// the consumer's first fetch, the consumer's CollectSince costs under a
// quarter of one ed25519.Verify of the same payload (not asserted under
// -race). A CollectSince that verifies the signature itself costs more
// than the Verify and fails it; decoding the bundle, which the signer
// does as well (TestBusDecodesAhead), costs about a seventh of it. The
// two are sampled alternately, 50 of each in one process, and compared
// by their minima: load from other processes only ever adds time, so
// the minimum is the statistic it cannot inflate, and alternating keeps
// a burst of load from landing on one side's samples only.
func TestBusAuthenticatesAhead(t *testing.T) {
	srv, _, reg := dissemWorld(t, 4)
	bus := NewBus()
	bus.Attach(srv)
	if _, err := bus.CollectSince(reg, 4, 0, func(*Bundle) error { return nil }); err != nil {
		t.Fatal(err)
	}
	b := handoffBundle(stats.NewRNG(0xa4ead), 100)
	const n = 50
	collect, verify := make([]time.Duration, n), make([]time.Duration, n)
	// A first, untimed pass and a GC let the timed pass decode into heap
	// already mapped: a young process's first allocations fault fresh
	// pages, which is noise at this scale.
	for pass := 0; pass < 2; pass++ {
		runtime.GC()
		for i := range collect {
			seq := srv.PublishEpoch(uint64(i), b.Samples, b.Aggs)
			sb := srv.SignedBundles("")[0] // the only one retained, signed and verified ahead
			delivered := 0
			start := time.Now()
			_, err := bus.CollectSince(reg, 4, seq, func(*Bundle) error {
				delivered++
				return nil
			})
			collect[i] = time.Since(start)
			if err != nil || delivered != 1 {
				t.Fatalf("collect %d: delivered %d bundles, err %v", i, delivered, err)
			}
			start = time.Now()
			ok := ed25519.Verify(reg[4], sb.Payload, sb.Sig)
			verify[i] = time.Since(start)
			if !ok {
				t.Fatal("the served signature does not verify")
			}
			srv.DropThrough(seq)
		}
	}
	col, ver := slices.Min(collect), slices.Min(verify)
	t.Logf("CollectSince min %v, ed25519.Verify min %v (%d-receipt bundle)", col, ver, len(b.Samples)+len(b.Aggs))
	if got := srv.aheadChecks.Load(); got != 2*n {
		t.Errorf("signer verified %d bundles ahead, want all %d", got, 2*n)
	}
	if 4*col >= ver && !raceEnabled {
		t.Errorf("CollectSince min %v is not under a quarter of ed25519.Verify's %v: the fetch still pays for authentication", col, ver)
	}
}

// parkedOn waits for the signer and returns the bundles it parked on the
// retained payload at position seq, nil if none are parked.
func parkedOn(srv *Server, seq uint64) []*Bundle {
	srv.SignedBundles("")
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	if p := srv.bundles[seq-srv.base].decoded.Load(); p != nil {
		return *p
	}
	return nil
}

// TestBusDecodesAhead pins decoding on arrival: once a bus consumer has
// fetched from a server, the signer decodes each payload it verified
// ahead, and the consumer's next fetch of it takes those bundles instead
// of decoding on the fetching goroutine. The bundles are handed over
// once; every other path decodes at fetch, and nothing parked outlives
// its payload.
func TestBusDecodesAhead(t *testing.T) {
	// world is a server whose bus consumer has made its first fetch.
	world := func(t *testing.T) (*Server, *Bus, Registry) {
		srv, _, reg := dissemWorld(t, 4)
		bus := NewBus()
		bus.Attach(srv)
		if _, err := bus.CollectSince(reg, 4, 0, func(*Bundle) error { return nil }); err != nil {
			t.Fatal(err)
		}
		return srv, bus, reg
	}
	publish := func(srv *Server, receipts int) uint64 {
		b := handoffBundle(stats.NewRNG(uint64(receipts)), receipts)
		return srv.PublishEpoch(7, b.Samples, b.Aggs)
	}

	// (a) The fetching goroutine allocates as much for four 1000-receipt
	// payloads as for four 10-receipt ones: it decodes none of them.
	t.Run("fetch decodes nothing", func(t *testing.T) {
		fetchAllocs := func(receipts int) uint64 {
			srv, bus, reg := world(t)
			for i := 0; i < 4; i++ {
				if parkedOn(srv, publish(srv, receipts)) == nil {
					t.Fatalf("%d-receipt payload %d: nothing parked", receipts, i)
				}
			}
			delivered := 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := bus.CollectSince(reg, 4, 0, func(*Bundle) error {
				delivered++
				return nil
			})
			runtime.ReadMemStats(&after)
			if err != nil || delivered != 4 {
				t.Fatalf("%d-receipt payloads: delivered %d, err %v", receipts, delivered, err)
			}
			return after.Mallocs - before.Mallocs
		}
		small, large := fetchAllocs(10), fetchAllocs(1000)
		t.Logf("fetching 4 payloads allocates %d objects at 10 receipts each, %d at 1000", small, large)
		if large > small+4 {
			t.Errorf("fetching 4 payloads allocates %d objects at 1000 receipts each against %d at 10: the fetch decodes", large, small)
		}
	})

	// (b) The first fetch takes the parked bundles, even when fn refuses
	// them; the retry gets bundles decoded afresh, which re-encode to the
	// signed bytes.
	t.Run("retry decodes afresh", func(t *testing.T) {
		srv, bus, reg := world(t)
		seq := publish(srv, 20)
		parked := parkedOn(srv, seq)
		if len(parked) != 1 {
			t.Fatalf("parked %d bundles, want 1", len(parked))
		}
		refuse := errors.New("ingest failed")
		var first *Bundle
		if next, err := bus.CollectSince(reg, 4, seq, func(b *Bundle) error {
			first = b
			return refuse
		}); !errors.Is(err, refuse) || next != seq {
			t.Fatalf("refused fetch: next %d, err %v; want %d and the fn error", next, err, seq)
		}
		if first != parked[0] || parkedOn(srv, seq) != nil {
			t.Fatalf("the first fetch did not take the parked bundle (got %p, parked %p)", first, parked[0])
		}
		var again *Bundle
		if _, err := bus.CollectSince(reg, 4, seq, func(b *Bundle) error {
			again = b
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		signed := srv.SignedBundles("")[0].Payload
		if again == nil || again == first || !bytes.Equal(again.Encode(), signed) {
			t.Fatalf("retry delivered %p (first attempt %p); want a fresh decode that re-encodes to the signed bytes", again, first)
		}
	})

	// (c) A tamper, a first consumer holding another key, a payload signed
	// before the first fetch and the HTTP feed all decode at fetch.
	t.Run("other paths decode at fetch", func(t *testing.T) {
		check := func(t *testing.T, srv *Server, seq uint64, fetch func() (*Bundle, error)) {
			t.Helper()
			parked := parkedOn(srv, seq)
			got, err := fetch()
			if err != nil {
				t.Fatal(err)
			}
			if len(parked) > 0 && (got == parked[0] || parkedOn(srv, seq) == nil) {
				t.Fatal("the fetch took the parked bundles")
			}
			if !bytes.Equal(got.Encode(), srv.SignedBundles("")[seq-srv.Base()].Payload) {
				t.Fatal("the fetched bundle does not re-encode to the signed bytes")
			}
		}
		busFetch := func(bus *Bus, reg Registry, seq uint64) func() (*Bundle, error) {
			return func() (*Bundle, error) {
				var got *Bundle
				_, err := bus.CollectSince(reg, 4, seq, func(b *Bundle) error {
					got = b
					return nil
				})
				return got, err
			}
		}
		t.Run("tamper", func(t *testing.T) {
			srv, bus, reg := world(t)
			seq := publish(srv, 20)
			if parkedOn(srv, seq) == nil {
				t.Fatal("nothing parked")
			}
			srv.SetTamper(corruptSigTamper{epoch: ^uint64(0)}) // installed, changes nothing
			check(t, srv, seq, busFetch(bus, reg, seq))
		})
		t.Run("another consumer's key", func(t *testing.T) {
			srv, _, reg := dissemWorld(t, 4)
			bus := NewBus()
			bus.Attach(srv)
			wrong := Registry{4: NewSigner(seedOf(99)).Public()}
			if _, err := bus.CollectSince(wrong, 4, 0, func(*Bundle) error { return nil }); err != nil {
				t.Fatal(err)
			}
			seq := publish(srv, 20)
			if parkedOn(srv, seq) != nil {
				t.Fatal("the signer parked bundles it verified under no consumer's key")
			}
			check(t, srv, seq, busFetch(bus, reg, seq))
		})
		t.Run("signed before the first fetch", func(t *testing.T) {
			srv, _, reg := dissemWorld(t, 4)
			bus := NewBus()
			bus.Attach(srv)
			seq := publish(srv, 20)
			if parkedOn(srv, seq) != nil {
				t.Fatal("the signer parked bundles before any bus consumer fetched")
			}
			check(t, srv, seq, busFetch(bus, reg, seq))
		})
		t.Run("HTTP", func(t *testing.T) {
			srv, _, reg := world(t)
			seq := publish(srv, 20)
			if parkedOn(srv, seq) == nil {
				t.Fatal("nothing parked")
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			client := &Client{Registry: reg}
			check(t, srv, seq, func() (*Bundle, error) {
				got, err := client.Fetch(context.Background(), ts.URL, 4, seq)
				if err != nil || len(got) != 1 {
					return nil, fmt.Errorf("fetched %d bundles, err %v", len(got), err)
				}
				return got[0], nil
			})
		})
	})

	// (d) Parked bundles nobody fetched go with their payload.
	t.Run("DropThrough releases", func(t *testing.T) {
		srv, _, _ := world(t)
		seq := publish(srv, 20)
		parked := weak.Make(parkedOn(srv, seq)[0])
		runtime.GC()
		if parked.Value() == nil {
			t.Fatal("the parked bundle was collected while its payload is retained")
		}
		srv.DropThrough(seq)
		runtime.GC()
		if parked.Value() != nil {
			t.Fatal("the parked bundle outlived its payload's DropThrough")
		}
	})
}
