package dissem_test

// The tampers of internal/adversary served through a Server: on the bus
// and over HTTP, under concurrent publishing, and cross-checked for
// equivocation. These are external tests because internal/adversary
// imports dissem; export_test.go lends them the in-package fixtures.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"vpm/internal/adversary"
	"vpm/internal/dissem"
	"vpm/internal/stats"
)

// TestWithholderHidesBundles: a withholding tamper starves the
// consumer without any transport-level error — the absence is the
// evidence (the windowed store's MissingSeals names the origin).
func TestWithholderHidesBundles(t *testing.T) {
	srv, _, reg := dissem.DissemWorld(t, 4)
	srv.PublishEpoch(0, nil, nil)
	srv.PublishEpoch(1, nil, nil)
	srv.PublishEpoch(2, nil, nil)
	srv.SetTamper(&adversary.Withholder{FromEpoch: 1})
	bus := dissem.NewBus()
	bus.Attach(srv)
	var epochs []uint64
	next, err := bus.CollectSince(reg, 4, 0, func(b *dissem.Bundle) error {
		epochs = append(epochs, b.Epoch)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 1 || epochs[0] != 0 {
		t.Fatalf("withholder leaked: %v", epochs)
	}
	if next != 1 {
		t.Fatalf("cursor advanced to %d past a withheld bundle", next)
	}
}

// TestReplayerServesStaleEpoch: from its activation epoch on, the
// replayer serves the last honest bundle again; the decoded epoch
// gives the replay away downstream.
func TestReplayerServesStaleEpoch(t *testing.T) {
	srv, _, reg := dissem.DissemWorld(t, 4)
	srv.PublishEpoch(0, nil, nil)
	srv.PublishEpoch(1, nil, nil)
	srv.PublishEpoch(2, nil, nil)
	srv.SetTamper(&adversary.Replayer{FromEpoch: 1})
	bus := dissem.NewBus()
	bus.Attach(srv)
	var epochs []uint64
	if _, err := bus.CollectSince(reg, 4, 0, func(b *dissem.Bundle) error {
		epochs = append(epochs, b.Epoch)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 3 || epochs[0] != 0 || epochs[1] != 0 || epochs[2] != 0 {
		t.Fatalf("replayed epochs: %v, want [0 0 0]", epochs)
	}
}

// TestEquivocatorAndProof: the equivocator serves viewer-dependent,
// validly-signed bundles; two verifiers comparing raw bundles hold a
// non-repudiable proof naming the origin.
func TestEquivocatorAndProof(t *testing.T) {
	srv, signer, reg := dissem.DissemWorld(t, 4)
	b := dissem.SampleBundle(4, 0)
	srv.PublishEpoch(0, b.Samples, b.Aggs)
	srv.SetTamper(&adversary.Equivocator{
		Signer: signer,
		Victim: "B",
		Mutate: func(b *dissem.Bundle) {
			for i := range b.Samples {
				for j := range b.Samples[i].Samples {
					b.Samples[i].Samples[j].TimeNS -= 1000
				}
			}
		},
	})
	bus := dissem.NewBus()
	bus.Attach(srv)

	// Both viewers' fetches authenticate: equivocation is invisible to
	// a single verifier.
	for _, viewer := range []string{"A", "B"} {
		if _, err := bus.CollectSinceAs(viewer, reg, 4, 0, func(*dissem.Bundle) error { return nil }); err != nil {
			t.Fatalf("viewer %s: %v", viewer, err)
		}
	}
	proofs := dissem.FindEquivocation(reg, 4, srv.SignedBundles("A"), srv.SignedBundles("B"))
	if len(proofs) != 1 {
		t.Fatalf("got %d equivocation proofs, want 1", len(proofs))
	}
	if proofs[0].Origin != 4 || proofs[0].Seq != 0 {
		t.Fatalf("proof misattributed: %+v", proofs[0])
	}
	// Same viewer twice: no proof (consistency, not equivocation).
	if p := dissem.FindEquivocation(reg, 4, srv.SignedBundles("A"), srv.SignedBundles("A")); len(p) != 0 {
		t.Fatalf("false equivocation proof: %v", p)
	}
}

// TestViewerHeaderReachesTamper: the HTTP transport carries the
// verifier identity to the server's tamper, so per-viewer equivocation
// works over the paper's real dissemination realization too.
func TestViewerHeaderReachesTamper(t *testing.T) {
	srv, signer, reg := dissem.DissemWorld(t, 4)
	b := dissem.SampleBundle(4, 0)
	srv.PublishEpoch(0, b.Samples, b.Aggs)
	srv.SetTamper(&adversary.Equivocator{
		Signer: signer,
		Victim: "victim",
		Mutate: func(b *dissem.Bundle) { b.Samples[0].Samples[0].TimeNS = 999_999 },
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	fetchFirstTime := func(viewer string) int64 {
		c := &dissem.Client{Registry: reg, Viewer: viewer}
		var got int64
		if _, err := c.FetchEach(context.Background(), ts.URL, 4, 0, func(b *dissem.Bundle) error {
			got = b.Samples[0].Samples[0].TimeNS
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if honest := fetchFirstTime("bystander"); honest == 999_999 {
		t.Fatal("bystander received the forged variant")
	}
	if forged := fetchFirstTime("victim"); forged != 999_999 {
		t.Fatalf("victim received %d, want the forged variant", forged)
	}
}

// TestPublishServeConcurrently runs every Server entry point at once,
// with bus consumers holding different keys; its value is under -race.
// Afterwards every retained bundle is served, authenticated.
func TestPublishServeConcurrently(t *testing.T) {
	srv, signer, reg := dissem.DissemWorld(t, 4)
	bus := dissem.NewBus()
	bus.Attach(srv)
	rng := stats.NewRNG(0x57e55)
	bundles := make([]*dissem.Bundle, 16)
	for i := range bundles {
		bundles[i] = dissem.HandoffBundle(rng, 20)
	}
	tampers := []dissem.BundleTamper{
		nil,
		&adversary.Withholder{FromEpoch: 100, ToEpoch: 200},
		&adversary.Equivocator{Signer: signer, Victim: "a", Mutate: func(b *dissem.Bundle) {
			if len(b.Aggs) > 0 {
				b.Aggs[0].PktCnt++
			}
		}},
	}

	var wg sync.WaitGroup
	run := func(iterations int, f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				f(i)
				runtime.Gosched()
			}
		}()
	}
	run(500, func(i int) {
		b := bundles[i%len(bundles)]
		srv.PublishEpoch(uint64(i), b.Samples, b.Aggs)
	})
	var cursor uint64
	run(300, func(int) {
		next, err := bus.CollectSinceAs("a", reg, 4, cursor, func(*dissem.Bundle) error { return nil })
		var gap *dissem.GapError
		switch {
		case errors.As(err, &gap):
			cursor = gap.Base
		case err != nil:
			t.Errorf("bus: %v", err)
		case next < cursor:
			t.Errorf("bus: cursor moved back from %d to %d", cursor, next)
		default:
			cursor = next
		}
	})
	// A second viewer whose registry holds another key for HOP 4: it is
	// refused every bundle, whichever of the two fetched first.
	wrong := dissem.Registry{4: dissem.NewSigner(dissem.SeedOf(99)).Public()}
	var wrongCursor uint64
	run(300, func(int) {
		_, err := bus.CollectSinceAs("b", wrong, 4, wrongCursor, func(b *dissem.Bundle) error {
			t.Errorf("bus: bundle %d accepted under another key", b.Seq)
			return nil
		})
		var gap *dissem.GapError
		var be *dissem.BundleError
		switch {
		case errors.As(err, &gap):
			wrongCursor = gap.Base
		case errors.As(err, &be):
			wrongCursor = be.Seq + 1
		case err != nil:
			t.Errorf("bus, wrong key: %v", err)
		}
	})
	run(300, func(int) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/?since="+strconv.FormatUint(srv.Base(), 10), nil))
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("http: status %d, Content-Length %q for a %d-byte body", rec.Code, rec.Header().Get("Content-Length"), rec.Body.Len())
		}
	})
	run(300, func(int) {
		if srv.BundleCount() > 32 {
			srv.DropThrough(srv.Base())
		}
	})
	run(300, func(i int) { srv.SetTamper(tampers[i%len(tampers)]) })
	wg.Wait()

	srv.SetTamper(nil)
	want := srv.BundleCount()
	got := 0
	if _, err := bus.CollectSince(reg, 4, srv.Base(), func(*dissem.Bundle) error {
		got++
		return nil
	}); err != nil || got != want {
		t.Fatalf("after the stress: served %d of %d retained bundles, err %v", got, want, err)
	}
}

// TestTampersOverHTTP: the dissemination adversaries do over the framed
// feed what their bus tests say they do, and leave both carriers'
// cursors on the same server position — a withheld position is
// skipped, a replayed bundle counts where it was served, not where its
// payload claims to belong.
func TestTampersOverHTTP(t *testing.T) {
	for _, tc := range []struct {
		tamper dissem.BundleTamper
		epochs []uint64
		next   uint64
	}{
		{&adversary.Withholder{FromEpoch: 1}, []uint64{0}, 1},
		{&adversary.Withholder{FromEpoch: 1, ToEpoch: 2}, []uint64{0, 2}, 3},
		{&adversary.Replayer{FromEpoch: 1}, []uint64{0, 0, 0}, 3},
	} {
		srv, _, reg := dissem.DissemWorld(t, 4)
		for e := uint64(0); e < 3; e++ {
			b := dissem.SampleBundle(4, e)
			srv.PublishEpoch(e, b.Samples, b.Aggs)
		}
		srv.SetTamper(tc.tamper)
		bus := dissem.NewBus()
		bus.Attach(srv)
		ts := httptest.NewServer(srv)
		for carrier, collect := range map[string]func(fn func(*dissem.Bundle) error) (uint64, error){
			"bus": func(fn func(*dissem.Bundle) error) (uint64, error) { return bus.CollectSince(reg, 4, 0, fn) },
			"http": func(fn func(*dissem.Bundle) error) (uint64, error) {
				return (&dissem.Client{Registry: reg}).FetchEach(context.Background(), ts.URL, 4, 0, fn)
			},
		} {
			var epochs []uint64
			next, err := collect(func(b *dissem.Bundle) error {
				epochs = append(epochs, b.Epoch)
				return nil
			})
			if err != nil || !slices.Equal(epochs, tc.epochs) || next != tc.next {
				t.Errorf("%s over %s: epochs %v up to cursor %d, err %v; want %v up to %d",
					tc.tamper.Name(), carrier, epochs, next, err, tc.epochs, tc.next)
			}
		}
		ts.Close()
	}

	// A forged bundle is a permanent *BundleError named by its server
	// position and the epoch its payload claims (here frame 0 of a
	// since=1 fetch, at position 1), refused after one attempt exactly as
	// the bus refuses it.
	srv, _, reg := dissem.DissemWorld(t, 4)
	for e := uint64(0); e < 3; e++ {
		b := dissem.SampleBundle(4, e)
		srv.PublishEpoch(e+10, b.Samples, b.Aggs)
	}
	srv.SetTamper(dissem.CorruptSig(11))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	attempts, delivered := 0, 0
	err := dissem.Retry(context.Background(), dissem.RetryPolicy{Attempts: 2, Base: time.Millisecond}, func() error {
		attempts++
		_, err := (&dissem.Client{Registry: reg}).FetchEach(context.Background(), ts.URL, 4, 1, func(*dissem.Bundle) error {
			delivered++
			return nil
		})
		return err
	})
	var be *dissem.BundleError
	if !errors.As(err, &be) || !errors.Is(err, dissem.ErrBadSignature) {
		t.Fatalf("corrupted signature over HTTP: err %v (%T), want a *dissem.BundleError wrapping dissem.ErrBadSignature", err, err)
	}
	if be.Origin != 4 || be.Seq != 1 || be.Epoch != 11 {
		t.Errorf("corrupted signature over HTTP: %+v, want HOP 4 seq 1 epoch 11", be)
	}
	if attempts != 1 || delivered != 0 {
		t.Errorf("corrupted signature over HTTP: %d attempts delivering %d bundles, want 1 attempt and none", attempts, delivered)
	}
}
