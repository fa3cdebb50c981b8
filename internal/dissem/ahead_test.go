package dissem

import (
	"context"
	"crypto/ed25519"
	"errors"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"

	"vpm/internal/stats"
)

// Authentication on arrival: once a bus consumer has fetched from a
// server, the server's signer verifies each later bundle under that
// consumer's registry key, and the consumer's fetch only decodes. These
// tests pin the trust rule: nothing is accepted on a verification under
// another key, or of bytes other than the ones served.

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
// than the Verify and fails it; decoding the bundle costs about a
// seventh of it. The two are sampled alternately, 50 of each in one
// process, and compared by their minima: load from other processes
// only ever adds time, so the minimum is the statistic it cannot
// inflate, and alternating keeps a burst of load from landing on one
// side's samples only.
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
