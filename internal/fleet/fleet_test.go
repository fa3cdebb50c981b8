package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vpm/internal/adversary"
	"vpm/internal/core"
	"vpm/internal/dissem"
	"vpm/internal/netsim"
	"vpm/internal/packet"
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

// TestRingDeterministicAndBalanced: two Rings of one width agree on
// every key, and at every width from 2 to 9 the most-loaded shard
// holds at most 1.06× the mean of 10 000 keys (it reads ≤ 1.046; the
// slowest shard sets the tier's pace, so skew is lost speed).
func TestRingDeterministicAndBalanced(t *testing.T) {
	if _, err := NewRing(0); err == nil {
		t.Fatal("zero-shard ring built")
	}
	keys := netsim.WideKeys(10_000)
	for n := 2; n <= 9; n++ {
		r1, err := NewRing(n)
		if err != nil {
			t.Fatal(err)
		}
		r2, _ := NewRing(n)
		counts := make([]int, n)
		for _, k := range keys {
			s := r1.OwnerKey(k)
			if s2 := r2.OwnerKey(k); s2 != s {
				t.Fatalf("two %d-shard rings disagree on %v: %d vs %d", n, k, s, s2)
			}
			counts[s]++
		}
		if skew := float64(slices.Max(counts)) * float64(n) / float64(len(keys)); skew > 1.06 {
			t.Errorf("%d shards: most-loaded shard holds %.3f× the mean (%v), want ≤ 1.06", n, skew, counts)
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

// TestRingGolden pins OwnerKey on fixed keys at widths 2, 3 and 4:
// every process of a verifier tier must compute the same ownership, so
// a change to the key hash or the jump loop is a change of the split
// between builds, never a silent one.
func TestRingGolden(t *testing.T) {
	keys := []packet.PathKey{
		{},
		{Src: packet.MakePrefix(10, 0, 0, 0, 8), Dst: packet.MakePrefix(192, 168, 0, 0, 16)},
		{Src: packet.MakePrefix(10, 0, 0, 1, 32), Dst: packet.MakePrefix(192, 0, 0, 1, 32)},
		{Src: packet.MakePrefix(10, 0, 0, 2, 32), Dst: packet.MakePrefix(192, 0, 0, 2, 32)},
		{Src: packet.MakePrefix(172, 16, 4, 0, 24), Dst: packet.MakePrefix(172, 16, 5, 0, 24)},
		{Src: packet.MakePrefix(1, 2, 3, 4, 32), Dst: packet.MakePrefix(5, 6, 7, 8, 32)},
		{Src: packet.MakePrefix(255, 255, 255, 255, 32), Dst: packet.MakePrefix(0, 0, 0, 0, 0)},
		{Src: packet.MakePrefix(100, 64, 0, 0, 10), Dst: packet.MakePrefix(198, 51, 100, 0, 24)},
	}
	want := map[int][]int{
		2: {0, 0, 0, 0, 0, 0, 1, 0},
		3: {0, 0, 2, 0, 0, 0, 2, 0},
		4: {0, 0, 3, 0, 3, 0, 2, 0},
	}
	for n, owners := range want {
		r, err := NewRing(n)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if got := r.OwnerKey(k); got != owners[i] {
				t.Errorf("%d shards: %v owned by shard %d, pinned %d", n, k, got, owners[i])
			}
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
// like a real process would. Returns the base URLs and a wait function.
func startCollectors(t *testing.T, spec Spec, opts CollectorOptions) ([]string, func()) {
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
			errs[ci] = c.Run(context.Background(), opts)
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
		urls, wait := startCollectors(t, w.Spec, CollectorOptions{})
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
	urls, wait := startCollectors(t, w.Spec, CollectorOptions{})
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
	if msg := err.Error(); !strings.Contains(msg, "shard 1") || !strings.Contains(msg, dead.URL+"/domain/") {
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

// TestHostileKeysCostAShardNothing: bundles naming 10 000 keys no
// layout knows — what a hostile or misconfigured domain can send —
// pass through the shard's filter without one allocation, fresh keys
// in every bundle, so the filter keeps no per-key state that such a
// feed could grow.
func TestHostileKeysCostAShardNothing(t *testing.T) {
	w, err := testSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVerifier(w, 2, 1, VerifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const keys, runs = 10_000, 5
	// AllocsPerRun calls once more than runs: one decoded bundle each.
	bundles := make([]*dissem.Bundle, runs+1)
	for r := range bundles {
		forged := &dissem.Bundle{Origin: w.HOPs[0], Seq: uint64(r), Epoch: 1}
		for i := range keys {
			a, b := byte(i>>8), byte(i)
			path := receipt.PathID{Key: packet.PathKey{
				Src: packet.MakePrefix(172, 16+byte(r), a, b, 32),
				Dst: packet.MakePrefix(198, 18, a, b, 32),
			}}
			forged.Samples = append(forged.Samples, receipt.SampleReceipt{Path: path, Samples: []receipt.SampleRecord{{PktID: uint64(i), TimeNS: int64(i)}}})
			forged.Aggs = append(forged.Aggs, receipt.AggReceipt{Path: path, Agg: receipt.AggID{First: uint64(i), Last: uint64(i)}, PktCnt: 1})
		}
		decoded, err := dissem.DecodePayload(forged.AppendEncode(nil))
		if err != nil {
			t.Fatal(err)
		}
		bundles[r] = decoded[0]
	}
	want := 0
	for _, s := range bundles[0].Samples {
		if v.ring.OwnerKey(s.Path.Key) == 1 {
			want++
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		v.filterBundle(bundles[next])
		next++
	})
	if allocs != 0 {
		t.Errorf("filtering %d hostile keys allocates %.0f times per bundle, want 0", keys, allocs)
	}
	if b := bundles[0]; len(b.Samples) != want || len(b.Aggs) != want || want == 0 || want == keys {
		t.Errorf("filter kept %d samples and %d aggs; shard 1 owns %d of %d keys", len(b.Samples), len(b.Aggs), want, keys)
	}
}

// TestVerifierRunTwiceIsAnError: the engine behind a Verifier holds
// its first run's feeds and cursors, so a second Run on it returns
// ErrVerifierReused instead of running over doubled feeds.
func TestVerifierRunTwiceIsAnError(t *testing.T) {
	w, err := testSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	urls, wait := startCollectors(t, w.Spec, CollectorOptions{})
	v, err := NewVerifier(w, 2, 0, VerifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := VerifierOptions{Poll: 5 * time.Millisecond}
	reports, err := v.Run(context.Background(), urls, opts)
	if err != nil || len(reports) == 0 {
		t.Fatalf("first Run: %d reports, %v", len(reports), err)
	}
	wait()
	if _, err := v.Run(context.Background(), urls, opts); !errors.Is(err, ErrVerifierReused) {
		t.Fatalf("second Run: %v, want ErrVerifierReused", err)
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

// forgeEpoch breaks the signature of every payload of one epoch.
type forgeEpoch uint64

func (forgeEpoch) Name() string { return "forge-epoch" }
func (f forgeEpoch) Serve(_ string, _, epoch uint64, sb dissem.SignedBundle) (dissem.SignedBundle, bool) {
	if epoch == uint64(f) {
		sb.Sig = append([]byte{sb.Sig[0] ^ 0xff}, sb.Sig[1:]...)
	}
	return sb, true
}

// multiHOPDomains returns the domains collector ci serves that have at
// least two HOPs, so blame on "every HOP of the domain" means more than
// one.
func multiHOPDomains(t *testing.T, w *World, ci int) []int {
	t.Helper()
	var out []int
	for _, d := range w.Domains() {
		if w.Spec.CollectorOf(d) == ci && len(w.DomainHOPs(d)) >= 2 {
			out = append(out, d)
		}
	}
	if len(out) < 2 {
		t.Fatalf("collector %d serves %d multi-HOP domains, the test needs 2", ci, len(out))
	}
	return out
}

// republish fetches domain d's payloads from an honest collector at
// base and publishes the epochs order picks of them, by index, on a
// fresh server signing with the domain's key.
func republish(t *testing.T, w *World, base string, d int, order func(n int) []int) *dissem.Server {
	t.Helper()
	hops := w.DomainHOPs(d)
	bundles, err := (&dissem.Client{Registry: w.Registry()}).Fetch(context.Background(), base+FeedPath(d), hops[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := dissem.NewDomainServer(hops, w.Spec.DomainSigner(d))
	for _, e := range order(len(bundles) / len(hops)) {
		for _, b := range bundles[e*len(hops) : (e+1)*len(hops)] {
			srv.Publish(b.Origin, b.Epoch, b.Samples, b.Aggs)
		}
	}
	return srv
}

// TestVerifierReportsClassifiedFindings: dissemination misbehaviour the
// engine classifies into blame — here a domain that serves epoch 0
// twice and never its terminal epoch, and a domain whose epoch-1
// payload fails its signature — does not vanish on the fleet path: Run
// returns it as a *FindingsError naming the domains' HOPs, without
// spending a retry budget on the forged frame. The forged payload is
// one signature finding naming every HOP of its domain; the replay is
// one epoch-replay finding per replayed bundle and the starved terminal
// epoch one withheld-bundle finding per HOP.
func TestVerifierReportsClassifiedFindings(t *testing.T) {
	spec := testSpec()
	urls := make([]string, spec.Collectors)
	var liar, forger []receipt.HOPID
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
			honest := httptest.NewServer(handler)
			defer honest.Close()
			domains := multiHOPDomains(t, cw, ci)
			liar, forger, terminal = cw.DomainHOPs(domains[0]), cw.DomainHOPs(domains[1]), cw.Terminal
			mux := http.NewServeMux()
			// The liar re-publishes epoch 0 in place of its terminal epoch.
			mux.Handle(FeedPath(domains[0]), republish(t, cw, honest.URL, domains[0], func(n int) []int {
				return append([]int{0}, seq(n-1)...)
			}))
			// The forger re-serves its feed with epoch 1's signature broken.
			forged := republish(t, cw, honest.URL, domains[1], seq)
			forged.SetTamper(forgeEpoch(1))
			mux.Handle(FeedPath(domains[1]), forged)
			mux.Handle("/", handler)
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
	var replayed, withheld, unsealed []receipt.HOPID
	forgeries := 0
	for _, f := range fe.Findings {
		switch {
		case f.Evidence == core.EvEpochReplay && f.Epoch == 0 && len(f.HOPs) == 1:
			replayed = append(replayed, f.HOPs[0])
		case f.Evidence == core.EvWithheldBundle && f.Epoch == terminal && len(f.HOPs) == 1:
			withheld = append(withheld, f.HOPs[0])
		case f.Evidence == core.EvSignature && f.Epoch == 1 && reflect.DeepEqual(f.HOPs, forger):
			forgeries++
		case f.Evidence == core.EvWithheldBundle && f.Epoch == 1 && len(f.HOPs) == 1:
			unsealed = append(unsealed, f.HOPs[0])
		default:
			t.Errorf("unexpected finding %v (%s)", f, f.Detail)
		}
	}
	if !reflect.DeepEqual(replayed, liar) || !reflect.DeepEqual(withheld, liar) {
		t.Errorf("epoch-0 replays on %v and terminal withholding on %v, want each on every HOP of %v", replayed, withheld, liar)
	}
	// The refused payload leaves epoch 1 unsealed by every forger HOP.
	if forgeries != 1 || !reflect.DeepEqual(unsealed, forger) {
		t.Errorf("%d signature findings naming %v and epoch 1 unsealed by %v, want 1 and all of %v: %v", forgeries, forger, unsealed, forger, fe.Findings)
	}
}

// seq returns 0, 1, …, n−1.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestReplayedFeedBecomesBlame: a collector whose own domain server
// replays epoch 0 in place of every later epoch is blamed, not crashed
// on. Each shard's Run returns a *FindingsError naming epoch-replay and
// withheld-bundle on that domain's HOPs alone, every one of them, and
// the findings are the same at widths 1 and 2: every shard fetches
// every feed, and each feed's cursor is the server's position, not the
// seq the replayed payload claims.
func TestReplayedFeedBecomesBlame(t *testing.T) {
	spec := testSpec()
	urls := make([]string, spec.Collectors)
	var liar []receipt.HOPID
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
			liar = cw.DomainHOPs(multiHOPDomains(t, cw, ci)[0])
			c.servers.Servers[liar[0]].SetTamper(&adversary.Replayer{FromEpoch: 1})
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
			blamed := map[receipt.HOPID]bool{}
			for _, f := range fe.Findings {
				classes[f.Evidence]++
				for _, h := range f.HOPs {
					blamed[h] = true
				}
				if len(f.HOPs) != 1 || !slices.Contains(liar, f.HOPs[0]) {
					t.Errorf("width %d shard %d: finding %v, want it on one HOP of %v", shards, s, f, liar)
				}
			}
			if len(blamed) != len(liar) {
				t.Errorf("width %d shard %d: findings name %d HOPs, want every one of %v", shards, s, len(blamed), liar)
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

// countingTransport counts the HTTP requests a shard makes.
type countingTransport struct{ n atomic.Int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestShardVerifiesOncePerDomainEpoch is the hardware-independent gate
// on the signed unit: against finished collectors, each shard of a
// width-2 tier checks one signature per (domain, epoch) — not one per
// (HOP, epoch) — and makes one request per domain feed.
func TestShardVerifiesOncePerDomainEpoch(t *testing.T) {
	w, err := testSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	domains := len(w.Domains())
	if domains >= len(w.HOPs) {
		t.Fatalf("%d domains for %d HOPs: no domain has two HOPs, nothing to share a signature", domains, len(w.HOPs))
	}
	urls, wait := startCollectors(t, w.Spec, CollectorOptions{})
	wait()
	for s := 0; s < 2; s++ {
		v, err := NewVerifier(w, 2, s, VerifierOptions{})
		if err != nil {
			t.Fatal(err)
		}
		requests := &countingTransport{}
		if _, err := v.Run(context.Background(), urls, VerifierOptions{HTTP: &http.Client{Transport: requests}}); err != nil {
			t.Fatal(err)
		}
		if got, want := v.Verifications(), int64(domains)*int64(w.Terminal+1); got != want {
			t.Errorf("shard %d checked %d signatures, want %d: %d domains × %d epochs (%d HOPs)", s, got, want, domains, w.Terminal+1, len(w.HOPs))
		}
		if got := requests.n.Load(); got != int64(domains) {
			t.Errorf("shard %d made %d requests, want one per domain feed: %d", s, got, domains)
		}
	}
}

// TestCollectorServesProfiles: a collector's HTTP surface serves the
// runtime profiles under /debug/pprof/, from its own mux.
func TestCollectorServesProfiles(t *testing.T) {
	w, err := testSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCollector(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(c.Handler())
	defer hs.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s, want 200", path, resp.Status)
		}
	}
}

// TestShardServesEpochs scrapes /debug/epochs on shard 0 of a width-2
// tier while the collectors still stream: every document it reads
// counts as verified exactly the epochs up to its last verified one,
// the last verified epoch never moves back, the held epochs ascend one
// by one, and once the shard is done the document stands at the
// terminal epoch with every epoch verified and no findings.
func TestShardServesEpochs(t *testing.T) {
	w, err := testSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	// Paced collectors keep the stream going while the shard verifies
	// its first epochs.
	urls, wait := startCollectors(t, w.Spec, CollectorOptions{ChunkSlots: 512, Pace: 5 * time.Millisecond})
	defer wait()
	v, err := NewVerifier(w, 2, 0, VerifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	v.HandleEpochs(mux)
	hs := httptest.NewServer(mux)
	defer hs.Close()

	type doc struct {
		Held []struct {
			Epoch core.EpochID `json:"epoch"`
		} `json:"held"`
		LastVerified *core.EpochID  `json:"last_verified"`
		Verified     int            `json:"verified"`
		Findings     map[string]int `json:"findings"`
	}
	scrape := func() doc {
		resp, err := http.Get(hs.URL + "/debug/epochs")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var d doc
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatalf("GET /debug/epochs: %v", err)
		}
		return d
	}
	var last *core.EpochID
	check := func(d doc) {
		t.Helper()
		if d.LastVerified == nil {
			if d.Verified != 0 || last != nil {
				t.Fatalf("no last verified epoch after %v, %d verified", last, d.Verified)
			}
			return
		}
		if d.Verified != int(*d.LastVerified)+1 {
			t.Fatalf("%d epochs verified, last %d: an epoch was skipped or verified out of order", d.Verified, *d.LastVerified)
		}
		if last != nil && *d.LastVerified < *last {
			t.Fatalf("last verified epoch went back from %d to %d", *last, *d.LastVerified)
		}
		for i := 1; i < len(d.Held); i++ {
			if d.Held[i].Epoch != d.Held[i-1].Epoch+1 {
				t.Fatalf("held epochs %+v do not ascend one by one", d.Held)
			}
		}
		last = d.LastVerified
	}

	done := make(chan error, 1)
	go func() {
		_, err := v.Run(context.Background(), urls, VerifierOptions{Poll: time.Millisecond})
		done <- err
	}()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		case <-time.After(time.Millisecond):
			check(scrape())
		}
	}
	d := scrape()
	check(d)
	if d.LastVerified == nil || *d.LastVerified != w.Terminal || len(d.Findings) != 0 {
		t.Fatalf("finished shard's document: last verified %v, findings %v; want terminal %d and none", d.LastVerified, d.Findings, w.Terminal)
	}
}
