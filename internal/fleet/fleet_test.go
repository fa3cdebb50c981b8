package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vpm/internal/core"
	"vpm/internal/dissem"
	"vpm/internal/netsim"
	"vpm/internal/receipt"
)

// testSpec is small enough to simulate once per collector per shard
// count, large enough that every epoch carries receipts for most keys.
func testSpec() Spec {
	return Spec{
		Seed:       42,
		Domains:    8,
		ExtraLinks: 6,
		Keys:       64,
		Epochs:     3,
		IntervalNS: 50_000_000, // 50ms epochs
		RatePPS:    60_000,     // ~3000 packets per epoch
		Collectors: 2,
		Workers:    2,
	}
}

func TestSpecRoundTrip(t *testing.T) {
	s := testSpec()
	got, err := ParseSpec(s.Encode())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if got != s {
		t.Fatalf("round trip changed the spec: %+v vs %+v", got, s)
	}
	bad := s
	bad.Collectors = 0
	if _, err := ParseSpec(bad.Encode()); err == nil {
		t.Fatal("zero-collector spec validated")
	}
	if _, err := ParseSpec("{"); err == nil {
		t.Fatal("malformed spec parsed")
	}
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	if _, err := NewRing(0); err == nil {
		t.Fatal("zero-shard ring built")
	}
	r1, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewRing(4)
	keys := netsim.WideKeys(10_000)
	counts := make([]int, 4)
	for _, k := range keys {
		s := r1.OwnerKey(k)
		if s2 := r2.OwnerKey(k); s2 != s {
			t.Fatalf("two rings disagree on %v: %d vs %d", k, s, s2)
		}
		counts[s]++
	}
	// Consistent hashing with 64 vnodes is not perfectly even, but no
	// shard should be starved or hold a majority.
	for s, c := range counts {
		if c < len(keys)/10 || c > len(keys)*4/10 {
			t.Fatalf("shard %d owns %d of %d keys — ring badly unbalanced (%v)", s, c, len(keys), counts)
		}
	}
	// One shard owns everything.
	one, _ := NewRing(1)
	for _, k := range keys[:100] {
		if one.OwnerKey(k) != 0 {
			t.Fatal("1-shard ring routed a key off shard 0")
		}
	}
}

func TestWorldSplitsHOPsAcrossCollectors(t *testing.T) {
	w, err := testSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint32]int)
	for ci := 0; ci < w.Spec.Collectors; ci++ {
		for _, h := range w.OwnedHOPs(ci) {
			if prev, dup := seen[uint32(h)]; dup {
				t.Fatalf("HOP %v owned by collectors %d and %d", h, prev, ci)
			}
			seen[uint32(h)] = ci
		}
	}
	if len(seen) != len(w.HOPs) {
		t.Fatalf("collectors own %d HOPs, world has %d", len(seen), len(w.HOPs))
	}
	if w.Terminal < core.EpochID(w.Spec.Epochs-1) {
		t.Fatalf("terminal epoch %d before the last traffic epoch %d", w.Terminal, w.Spec.Epochs-1)
	}
}

// startCollectors runs every collector process in-process: each drives
// its slice of the world and serves its bundles from an httptest
// server. Each collector builds its own World from the spec, exactly
// like a real process would — a World's per-HOP collector state is
// single-use. Returns the base URLs and a wait function.
func startCollectors(t *testing.T, spec Spec) ([]string, func()) {
	t.Helper()
	urls := make([]string, spec.Collectors)
	var wg sync.WaitGroup
	errs := make([]error, spec.Collectors)
	for ci := 0; ci < spec.Collectors; ci++ {
		cw, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCollector(cw, ci)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(c.Handler())
		t.Cleanup(hs.Close)
		urls[ci] = hs.URL
		wg.Add(1)
		go func(ci int, c *Collector) {
			defer wg.Done()
			errs[ci] = c.Run(context.Background(), CollectorOptions{})
		}(ci, c)
	}
	return urls, func() {
		wg.Wait()
		for ci, err := range errs {
			if err != nil {
				t.Fatalf("collector %d: %v", ci, err)
			}
		}
	}
}

// TestFleetMatchesReferenceAtEveryShardCount is the tentpole
// acceptance test in miniature: the same world, collected by 2
// processes and verified by {1, 2, 4} shards, must merge into verdict
// bytes identical to the single-process reference at every width.
func TestFleetMatchesReferenceAtEveryShardCount(t *testing.T) {
	w, err := testSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	refReports, err := RunReference(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(refReports) != int(w.Terminal)+1 {
		t.Fatalf("reference produced %d reports, want %d (epochs 0..%d)", len(refReports), int(w.Terminal)+1, w.Terminal)
	}
	ref, err := EncodeReports(refReports)
	if err != nil {
		t.Fatal(err)
	}
	refFP := Fingerprint(ref)
	sawTraffic := false
	for _, r := range ref {
		if bytes.Contains(r, []byte(`"Keys"`)) {
			sawTraffic = true
		}
	}
	if !sawTraffic {
		t.Fatal("reference verdicts carry no per-key reports — the fixture is too small to prove anything")
	}

	for _, shards := range []int{1, 2, 4} {
		urls, wait := startCollectors(t, w.Spec)
		parts := make([]*ShardOutput, shards)
		verrs := make([]error, shards)
		var wg sync.WaitGroup
		for s := 0; s < shards; s++ {
			v, err := NewVerifier(w, shards, s, VerifierOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(s int, v *Verifier) {
				defer wg.Done()
				reports, err := v.Run(context.Background(), urls, VerifierOptions{Poll: 5 * time.Millisecond})
				if err != nil {
					verrs[s] = err
					return
				}
				parts[s], verrs[s] = NewShardOutput(shards, s, reports)
			}(s, v)
		}
		wg.Wait()
		wait()
		for s, err := range verrs {
			if err != nil {
				t.Fatalf("shards=%d: verifier %d: %v", shards, s, err)
			}
		}
		merged, err := MergeShardOutputs(parts)
		if err != nil {
			t.Fatalf("shards=%d: merge: %v", shards, err)
		}
		if len(merged) != len(ref) {
			t.Fatalf("shards=%d: merged %d epochs, reference has %d", shards, len(merged), len(ref))
		}
		for e := range merged {
			if !bytes.Equal(merged[e], ref[e]) {
				t.Fatalf("shards=%d: epoch %d verdict diverges from reference:\n got %s\nwant %s",
					shards, e, merged[e], ref[e])
			}
		}
		if fp := Fingerprint(merged); fp != refFP {
			t.Fatalf("shards=%d: fingerprint %s, want %s", shards, fp, refFP)
		}
	}
}

// TestRetiredKnobsAreInert: Spec.Workers is still declared (bench/
// assigns it, and specs in the wild carry a "workers" field) but
// nothing reads it — whatever it holds, the world verifies to the same
// fingerprint.
func TestRetiredKnobsAreInert(t *testing.T) {
	fingerprint := func(s Spec) string {
		t.Helper()
		w, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		reports, err := RunReference(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		encoded, err := EncodeReports(reports)
		if err != nil {
			t.Fatal(err)
		}
		return Fingerprint(encoded)
	}
	zero, two := testSpec(), testSpec()
	zero.Workers, two.Workers = 0, 2
	decoded, err := ParseSpec(strings.Replace(zero.Encode(), `"workers":0`, `"workers":4`, 1))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Workers != 4 {
		t.Fatalf("decoded spec carries Workers %d, want the 4 its JSON held", decoded.Workers)
	}
	want := fingerprint(zero)
	if got := fingerprint(two); got != want {
		t.Errorf("Workers 2: fingerprint %s, Workers 0 gives %s", got, want)
	}
	if got := fingerprint(decoded); got != want {
		t.Errorf(`spec decoded from "workers":4: fingerprint %s, Workers 0 gives %s`, got, want)
	}
}

// TestVerifierRestartIsReplay: a verifier that ran, was discarded, and
// re-ran from scratch against retained collector feeds produces
// byte-identical output — crash recovery needs no state.
func TestVerifierRestartIsReplay(t *testing.T) {
	w, err := testSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	urls, wait := startCollectors(t, w.Spec)
	run := func() *ShardOutput {
		v, err := NewVerifier(w, 2, 0, VerifierOptions{})
		if err != nil {
			t.Fatal(err)
		}
		reports, err := v.Run(context.Background(), urls, VerifierOptions{Poll: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		out, err := NewShardOutput(2, 0, reports)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := run()
	wait() // collectors done: the second run replays a complete feed
	second := run()
	if len(first.epochs) != len(second.epochs) {
		t.Fatalf("restart changed epoch count: %d vs %d", len(first.epochs), len(second.epochs))
	}
	for e := range first.epochs {
		if !bytes.Equal(first.report(e), second.report(e)) {
			t.Fatalf("restart changed epoch %d verdict", e)
		}
	}
}

// TestVerifierGivesUpOnDeadCollector: a collector that only ever
// answers 503 exhausts the fetch's retry budget, and Run surfaces that
// as a typed error naming the shard and the feed — promptly, not after
// polling forever.
func TestVerifierGivesUpOnDeadCollector(t *testing.T) {
	w, err := testSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	dead := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		http.Error(rw, "collector restarting", http.StatusServiceUnavailable)
	}))
	defer dead.Close()
	urls := make([]string, w.Spec.Collectors)
	for i := range urls {
		urls[i] = dead.URL
	}
	v, err := NewVerifier(w, 2, 1, VerifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Two attempts with one 10ms backoff between them: the policy is
	// spent after tens of milliseconds. The context only turns a hang
	// into a failure.
	retry := dissem.RetryPolicy{Attempts: 2, Base: 10 * time.Millisecond, Max: 10 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	_, err = v.Run(ctx, urls, VerifierOptions{Retry: retry})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Run took %v to give up on a two-attempt, 10ms-backoff policy", elapsed)
	}
	var budget *dissem.RetryBudgetError
	if !errors.As(err, &budget) {
		t.Fatalf("Run error = %v, want a *dissem.RetryBudgetError in its chain", err)
	}
	if budget.Attempts != retry.Attempts {
		t.Errorf("gave up after %d attempts, want %d", budget.Attempts, retry.Attempts)
	}
	if msg := err.Error(); !strings.Contains(msg, "shard 1") || !strings.Contains(msg, dead.URL+"/hop/") {
		t.Errorf("error %q does not name the shard and the feed", msg)
	}
}

func TestMergeShardOutputsRefusesBadTiers(t *testing.T) {
	mk := func(shards, shard int, n int) *ShardOutput {
		// Give each report its epoch so the merge accepts them.
		reports := make([]core.EpochReport, n)
		for e := range reports {
			reports[e].Epoch = core.EpochID(e)
		}
		out, err := NewShardOutput(shards, shard, reports)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if _, err := MergeShardOutputs(nil); err == nil {
		t.Fatal("merged zero parts")
	}
	if _, err := MergeShardOutputs([]*ShardOutput{mk(2, 0, 3)}); err == nil {
		t.Fatal("merged an incomplete tier")
	}
	if _, err := MergeShardOutputs([]*ShardOutput{mk(2, 0, 3), mk(3, 1, 3)}); err == nil {
		t.Fatal("merged mixed tiers")
	}
	if _, err := MergeShardOutputs([]*ShardOutput{mk(2, 0, 3), mk(2, 0, 3)}); err == nil {
		t.Fatal("merged duplicate shard indexes")
	}
	if _, err := MergeShardOutputs([]*ShardOutput{mk(2, 0, 3), mk(2, 1, 2)}); err == nil {
		t.Fatal("merged mismatched epoch ranges")
	}
	good, err := MergeShardOutputs([]*ShardOutput{mk(2, 0, 3), mk(2, 1, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(good) != 3 {
		t.Fatalf("merged %d epochs, want 3", len(good))
	}
}

func TestFilterBundlePreservesIdentity(t *testing.T) {
	w, err := testSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVerifier(w, 4, 2, VerifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := &dissem.Bundle{Origin: 9, Seq: 3, Epoch: 7}
	fb := v.filterBundle(b)
	if fb.Origin != 9 || fb.Seq != 3 || fb.Epoch != 7 {
		t.Fatalf("filter changed bundle identity: %+v", fb)
	}
	if len(fb.Samples) != 0 || len(fb.Aggs) != 0 {
		t.Fatal("empty bundle grew receipts")
	}
}

// TestRingOwnershipTotalAndStable: every key has an owner inside the
// tier at every width, and widening the tier by one shard moves a key
// only onto the new shard — never between old ones.
func TestRingOwnershipTotalAndStable(t *testing.T) {
	keys := netsim.WideKeys(5000)
	prev := make([]int, len(keys)) // the 1-shard ring: everything on shard 0
	for n := 2; n <= 9; n++ {
		r, err := NewRing(n)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for i, k := range keys {
			s := r.OwnerKey(k)
			if s < 0 || s >= n {
				t.Fatalf("%d shards: %v owned by shard %d, outside the tier", n, k, s)
			}
			if s != prev[i] {
				if s != n-1 {
					t.Fatalf("%d → %d shards: %v moved from shard %d to old shard %d", n-1, n, k, prev[i], s)
				}
				moved++
			}
			prev[i] = s
		}
		if moved == 0 || moved > 2*len(keys)/n {
			t.Fatalf("%d → %d shards moved %d of %d keys onto the new shard", n-1, n, moved, len(keys))
		}
	}
}

// forgeEpoch breaks the signature of every bundle of one epoch.
type forgeEpoch uint64

func (forgeEpoch) Name() string { return "forge-epoch" }
func (f forgeEpoch) Serve(_ string, _, epoch uint64, sb dissem.SignedBundle) (dissem.SignedBundle, bool) {
	if epoch == uint64(f) {
		sb.Sig = append([]byte{sb.Sig[0] ^ 0xff}, sb.Sig[1:]...)
	}
	return sb, true
}

// TestVerifierReportsClassifiedFindings: dissemination misbehaviour the
// engine classifies into blame — here a HOP that serves epoch 0 twice
// and never its terminal epoch, and a HOP whose epoch-1 bundle fails
// its signature — does not vanish on the fleet path: Run returns it as
// a *FindingsError naming the HOPs, without spending a retry budget on
// the forged frame.
func TestVerifierReportsClassifiedFindings(t *testing.T) {
	spec := testSpec()
	urls := make([]string, spec.Collectors)
	var liar, forger receipt.HOPID
	var terminal core.EpochID
	for ci := range urls {
		cw, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCollector(cw, ci)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(context.Background(), CollectorOptions{}); err != nil {
			t.Fatal(err)
		}
		handler := c.Handler()
		if ci == 0 {
			// Re-publish the first owned HOP's feed with epoch 0
			// replayed in place of the terminal epoch.
			liar, terminal = c.Owned()[0], cw.Terminal
			honest := httptest.NewServer(handler)
			defer honest.Close()
			path := fmt.Sprintf("/hop/%d/receipts", liar)
			bundles, err := (&dissem.Client{Registry: cw.Registry()}).Fetch(context.Background(), honest.URL+path, liar, 0)
			if err != nil {
				t.Fatal(err)
			}
			forged := dissem.NewServer(liar, spec.Signer(liar))
			forged.PublishEpoch(0, bundles[0].Samples, bundles[0].Aggs)
			for _, b := range bundles[:len(bundles)-1] {
				forged.PublishEpoch(b.Epoch, b.Samples, b.Aggs)
			}
			mux := http.NewServeMux()
			mux.Handle(path, forged)
			// Re-serve the second owned HOP's feed with epoch 1's
			// signature broken.
			forger = c.Owned()[1]
			path = fmt.Sprintf("/hop/%d/receipts", forger)
			bundles, err = (&dissem.Client{Registry: cw.Registry()}).Fetch(context.Background(), honest.URL+path, forger, 0)
			if err != nil {
				t.Fatal(err)
			}
			resigned := dissem.NewServer(forger, spec.Signer(forger))
			for _, b := range bundles {
				resigned.PublishEpoch(b.Epoch, b.Samples, b.Aggs)
			}
			resigned.SetTamper(forgeEpoch(1))
			mux.Handle(path, resigned)
			mux.Handle("/", c.Handler())
			handler = mux
		}
		hs := httptest.NewServer(handler)
		defer hs.Close()
		urls[ci] = hs.URL
	}
	w, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVerifier(w, 1, 0, VerifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = v.Run(context.Background(), urls, VerifierOptions{Poll: 5 * time.Millisecond})
	var fe *FindingsError
	if !errors.As(err, &fe) {
		t.Fatalf("Run error = %v, want a *FindingsError", err)
	}
	first := fe.Findings[0]
	if first.Evidence != core.EvEpochReplay || first.Epoch != 0 || len(first.HOPs) != 1 || first.HOPs[0] != liar {
		t.Errorf("first finding %v, want an epoch-0 replay by %v", first, liar)
	}
	last := fe.Findings[len(fe.Findings)-1]
	if last.Evidence != core.EvWithheldBundle || last.Epoch != terminal || last.HOPs[0] != liar {
		t.Errorf("last finding %v, want epoch %d withheld by %v", last, terminal, liar)
	}
	forgeries := 0
	for _, f := range fe.Findings {
		if f.Evidence == core.EvSignature {
			forgeries++
			if f.Epoch != 1 || len(f.HOPs) != 1 || f.HOPs[0] != forger {
				t.Errorf("signature finding %v, want epoch 1 by %v", f, forger)
			}
		}
	}
	if forgeries != 1 {
		t.Errorf("%d signature findings, want 1: %v", forgeries, fe.Findings)
	}
}

// TestReplayedFeedBecomesBlame: a collector whose own HOP server
// replays epoch 0 in place of every later epoch is blamed, not crashed
// on. Each shard's Run returns a *FindingsError naming epoch-replay and
// withheld-bundle on that HOP alone, and the findings are the same at
// widths 1 and 2: every shard fetches every feed, and each feed's cursor
// is the server's position, not the seq the replayed payload claims.
func TestReplayedFeedBecomesBlame(t *testing.T) {
	spec := testSpec()
	urls := make([]string, spec.Collectors)
	var liar receipt.HOPID
	for ci := range urls {
		cw, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCollector(cw, ci)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(context.Background(), CollectorOptions{}); err != nil {
			t.Fatal(err)
		}
		if ci == 0 {
			liar = c.Owned()[0]
			c.servers.Servers[liar].SetTamper(&dissem.Replayer{FromEpoch: 1})
		}
		hs := httptest.NewServer(c.Handler())
		defer hs.Close()
		urls[ci] = hs.URL
	}
	w, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	var want []core.Blame
	for _, shards := range []int{1, 2} {
		for s := 0; s < shards; s++ {
			v, err := NewVerifier(w, shards, s, VerifierOptions{})
			if err != nil {
				t.Fatal(err)
			}
			_, err = v.Run(context.Background(), urls, VerifierOptions{Poll: 5 * time.Millisecond})
			var fe *FindingsError
			if !errors.As(err, &fe) {
				t.Fatalf("width %d shard %d: Run error = %v, want a *FindingsError", shards, s, err)
			}
			classes := map[core.EvidenceClass]int{}
			for _, f := range fe.Findings {
				classes[f.Evidence]++
				if len(f.HOPs) != 1 || f.HOPs[0] != liar {
					t.Errorf("width %d shard %d: finding %v, want it on %v alone", shards, s, f, liar)
				}
			}
			if len(classes) != 2 || classes[core.EvEpochReplay] == 0 || classes[core.EvWithheldBundle] == 0 {
				t.Fatalf("width %d shard %d: findings %v, want epoch-replay and withheld-bundle only", shards, s, fe.Findings)
			}
			if want == nil {
				want = fe.Findings
			} else if !reflect.DeepEqual(fe.Findings, want) {
				t.Fatalf("width %d shard %d: findings differ from width 1's:\n got %v\nwant %v", shards, s, fe.Findings, want)
			}
		}
	}
}
