package core

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

func TestEpochConfigValidation(t *testing.T) {
	good := EpochConfig{IntervalNS: 1e8, Retention: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		cfg  EpochConfig
		want string
	}{
		{"zero interval", EpochConfig{IntervalNS: 0, Retention: 1}, "interval"},
		{"negative interval", EpochConfig{IntervalNS: -5, Retention: 1}, "interval"},
		{"zero retention", EpochConfig{IntervalNS: 1e8, Retention: 0}, "retention"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("%s: expected an error", c.name)
			continue
		}
		//lint:ignore errwrap validation errors are ad hoc, no sentinel exists; the test pins the diagnostic wording
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestDeployConfigValidation(t *testing.T) {
	if err := DefaultDeployConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	mut := func(f func(*DeployConfig)) DeployConfig {
		dc := DefaultDeployConfig()
		f(&dc)
		return dc
	}
	cases := []struct {
		name string
		cfg  DeployConfig
		want string
	}{
		{"zero marker rate", mut(func(d *DeployConfig) { d.MarkerRate = 0 }), "marker rate"},
		{"negative window", mut(func(d *DeployConfig) { d.WindowNS = -1 }), "window"},
		{"bad default sampling", mut(func(d *DeployConfig) { d.Default.SampleRate = 1.5 }), "sampling rate"},
		{"zero default agg", mut(func(d *DeployConfig) { d.Default.AggRate = 0 }), "aggregation rate"},
		{"bad per-domain", mut(func(d *DeployConfig) {
			d.PerDomain = map[string]Tuning{"X": {SampleRate: -0.1, AggRate: 0.001}}
		}), `domain "X"`},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("%s: expected an error", c.name)
			continue
		}
		//lint:ignore errwrap validation errors are ad hoc, no sentinel exists; the test pins the diagnostic wording
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		// NewDeployment must reject it too, with the same diagnostic.
		if _, err2 := NewDeployment(netsim.Fig1Path(1), equivTraceConfig(1, 1000, 1e7).Table(), c.cfg); err2 == nil {
			t.Errorf("%s: NewDeployment accepted an invalid config", c.name)
		}
	}
}

// epochRecorder is an EpochSink that retains every sealed epoch, safe
// for the concurrent per-HOP replay goroutines.
type epochRecorder struct {
	mu     sync.Mutex
	byHOP  map[receipt.HOPID][]sealedEpoch
	sealed int
}

type sealedEpoch struct {
	epoch   EpochID
	samples []receipt.SampleReceipt
	aggs    []receipt.AggReceipt
}

func newEpochRecorder() *epochRecorder {
	return &epochRecorder{byHOP: make(map[receipt.HOPID][]sealedEpoch)}
}

func (r *epochRecorder) sink(hop receipt.HOPID, epoch EpochID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byHOP[hop] = append(r.byHOP[hop], sealedEpoch{epoch, samples, aggs})
	r.sealed++
}

// runEpochDeployment replays pkts over the same Fig1 path and config
// as runDeployment, but through an EpochDriver rotating every
// intervalNS, recording each HOP's sealed epochs.
func runEpochDeployment(t testing.TB, tc trace.Config, pkts [][]packet.Packet, intervalNS int64) (*Deployment, *epochRecorder) {
	t.Helper()
	path := netsim.Fig1Path(77)
	dep, err := NewDeployment(path, tc.Table(), DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := newEpochRecorder()
	driver, err := NewEpochDriver(dep, intervalNS, rec.sink)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := netsim.NewRunner(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range pkts {
		if _, err := runner.Run(chunk, driver.Observers()); err != nil {
			t.Fatal(err)
		}
	}
	driver.Close()
	return dep, rec
}

// TestRotationRepackagesWithoutChangingReceipts is the epoch-boundary
// receipt check: replaying the same trace one-shot and across rotated
// epochs yields the same receipts at every HOP — every record lands in
// exactly one epoch (concatenating the epochs reproduces the one-shot
// stream byte for byte, so nothing is dropped or duplicated at a
// boundary), with open aggregates carrying across rotations to the
// epoch where they close.
func TestRotationRepackagesWithoutChangingReceipts(t *testing.T) {
	tc := equivTraceConfig(2, 40_000, int64(4e8)) // ~16k packets, 2 paths
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	const intervalNS = int64(5e7) // 8 epochs of 50 ms

	oneShot, _ := runDeployment(t, tc, pkts)
	_, rec := runEpochDeployment(t, tc, [][]packet.Packet{pkts}, intervalNS)

	for id, proc := range oneShot.Processors {
		sealed := rec.byHOP[id]
		if len(sealed) == 0 {
			t.Fatalf("%v sealed no epochs", id)
		}
		// Epochs must arrive in order, each exactly once.
		for i, se := range sealed {
			if se.epoch != EpochID(i) {
				t.Fatalf("%v: sealed epoch %d at position %d", id, se.epoch, i)
			}
		}
		// Concatenating the sealed epochs must reproduce the one-shot
		// receipt stream byte for byte. Sample receipts are per-epoch
		// slices of the same per-path record streams, so compare the
		// flattened per-path record sequence.
		var gotSamples []receipt.SampleReceipt
		var gotAggs []receipt.AggReceipt
		for _, se := range sealed {
			gotSamples = append(gotSamples, se.samples...)
			gotAggs = append(gotAggs, se.aggs...)
		}
		got := encodeReceipts(mergeByPath(gotSamples), gotAggs)
		want := encodeReceipts(mergeByPath(proc.Samples), proc.Aggs)
		if !bytes.Equal(got, want) {
			t.Errorf("%v: epoch-concatenated receipts differ from one-shot (got %d bytes, want %d)",
				id, len(got), len(want))
		}
	}
}

// mergeByPath combines sample receipts per PathID preserving record
// order, normalizing the per-epoch receipt splitting.
func mergeByPath(in []receipt.SampleReceipt) []receipt.SampleReceipt {
	idx := make(map[receipt.PathID]int)
	var out []receipt.SampleReceipt
	for _, r := range in {
		if i, ok := idx[r.Path]; ok {
			out[i].Samples = append(out[i].Samples, r.Samples...)
			continue
		}
		idx[r.Path] = len(out)
		cp := receipt.SampleReceipt{Path: r.Path}
		cp.Samples = append(cp.Samples, r.Samples...)
		out = append(out, cp)
	}
	return out
}

// sealUnion hands every HOP's recorded epochs to sink as one interval,
// concatenated in epoch order — the stream's receipts exactly as a
// one-shot run seals them (TestRotationRepackagesWithoutChangingReceipts).
func (r *epochRecorder) sealUnion(sink EpochSink) {
	hops := make([]receipt.HOPID, 0, len(r.byHOP))
	for hop := range r.byHOP {
		hops = append(hops, hop)
	}
	slices.Sort(hops)
	for _, hop := range hops {
		var samples []receipt.SampleReceipt
		var aggs []receipt.AggReceipt
		for _, se := range r.byHOP[hop] {
			samples = append(samples, se.samples...)
			aggs = append(aggs, se.aggs...)
		}
		sink(hop, 0, samples, aggs)
	}
}

// onceBytes verifies one interval as epoch 0 (Deployment.VerifyOnce)
// and returns the report and its canonical encoding, for byte-identical
// comparison.
func onceBytes(t *testing.T, dep *Deployment, seal func(EpochSink)) (EpochReport, []byte) {
	t.Helper()
	rep, err := dep.VerifyOnce(dep.VerifierConfig(), 0.95, seal)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeEpochReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	return rep, enc
}

// TestBatchContinuousEquivalence is the acceptance check of continuous
// operation: the same Fig1 trace replayed one-shot and across 8
// rotated epochs produces byte-identical aggregate verdicts — link
// verdicts and domain reports, including violation order — when the
// per-epoch receipts are sealed as one interval.
func TestBatchContinuousEquivalence(t *testing.T) {
	tc := equivTraceConfig(2, 40_000, int64(4e8))
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	const intervalNS = int64(5e7) // 8 epochs

	oneShot, _ := runDeployment(t, tc, pkts)
	rep, want := onceBytes(t, oneShot, oneShot.Seal)

	epoched, rec := runEpochDeployment(t, tc, [][]packet.Packet{pkts}, intervalNS)
	_, got := onceBytes(t, epoched, rec.sealUnion)

	if !bytes.Equal(got, want) {
		t.Fatalf("aggregate verdicts differ between one-shot and %d rotated epochs:\none-shot:\n%s\ncontinuous:\n%s",
			8, want, got)
	}
	if len(rep.Keys) != 2 || rep.MatchedSamples() == 0 {
		t.Fatalf("one-shot report covers %d keys, %d matched samples — the comparison proved nothing", len(rep.Keys), rep.MatchedSamples())
	}
}

// TestEpochCollectorIdleIntervals: a traffic gap spanning several
// intervals seals the idle epochs as empty rather than skipping them.
func TestEpochCollectorIdleIntervals(t *testing.T) {
	tc := equivTraceConfig(1, 1000, 1e7)
	col, err := NewCollector(CollectorConfig{
		HOP:         1,
		Table:       tc.Table(),
		PathID:      func(key packet.PathKey) receipt.PathID { return receipt.PathID{Key: key} },
		Sampling:    DefaultSamplingConfig(),
		Aggregation: DefaultAggregationConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := newEpochRecorder()
	ec, err := NewEpochCollector(col, 100, rec.sink)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	p := &pkts[0]
	digest := uint64(1)        // below any marker threshold: buffers quietly
	ec.Observe(p, digest, 50)  // epoch 0
	ec.Observe(p, digest, 450) // jumps to epoch 4: seals 0..3
	ec.Close()                 // seals epoch 4
	if got := len(rec.byHOP[1]); got != 5 {
		t.Fatalf("expected 5 sealed epochs (4 rotations + terminal), got %d", got)
	}
	for i, se := range rec.byHOP[1] {
		if se.epoch != EpochID(i) {
			t.Fatalf("epoch %d sealed out of order at %d", se.epoch, i)
		}
	}
}

func TestWindowedStoreLifecycle(t *testing.T) {
	if _, err := NewWindowedStore(nil, 1); err == nil {
		t.Fatal("expected error for empty HOP set")
	}
	if _, err := NewWindowedStore([]receipt.HOPID{1}, 0); err == nil {
		t.Fatal("expected error for zero retention")
	}

	hops := []receipt.HOPID{1, 2}
	win, err := NewWindowedStore(hops, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 0 sealed by HOP 1 only: not ready.
	if err := win.IngestSealed(1, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if r := win.Ready(); len(r) != 0 {
		t.Fatalf("half-sealed epoch reported ready: %v", r)
	}
	// Fully sealed, but the successor epoch is not: still not ready —
	// epoch 1 holds the downstream half of epoch 0's boundary spill.
	if err := win.IngestSealed(2, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if r := win.Ready(); len(r) != 0 {
		t.Fatalf("epoch without sealed successor reported ready: %v", r)
	}

	// Seal epochs 1..5 fully: 0..4 become ready (5 waits for epoch 6).
	for e := EpochID(1); e <= 5; e++ {
		for _, h := range hops {
			if err := win.IngestSealed(h, e, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if r := win.Ready(); len(r) != 5 || r[0] != 0 || r[4] != 4 {
		t.Fatalf("expected epochs 0..4 ready, got %v", r)
	}

	// Verify all but epoch 2.
	for _, e := range []EpochID{0, 1, 3, 4, 5} {
		if err := win.MarkVerified(e); err != nil {
			t.Fatal(err)
		}
	}

	// Eviction horizon is maxSealed(5) − retention(1) = 4. Epoch 0
	// (verified, successor 1 verified) and epoch 3 (successor 4
	// verified) go; epoch 2 is old but UNVERIFIED and must survive,
	// and epoch 1 must survive too — it is unverified epoch 2's
	// lookback evidence.
	evicted := win.Evict()
	if evicted != 2 {
		t.Fatalf("expected 2 evictions, got %d", evicted)
	}
	st := win.Stats()
	if st.Segments != 4 || st.OldestHeld != 1 || st.NewestHeld != 5 {
		t.Fatalf("unexpected window after eviction: %+v", st)
	}
	if !win.Holds(2) {
		t.Fatal("unverified epoch 2 was dropped")
	}

	// Once epoch 2 is verified, it and its predecessor age out.
	if err := win.MarkVerified(2); err != nil {
		t.Fatal(err)
	}
	if n := win.Evict(); n != 2 {
		t.Fatalf("expected epochs 1 and 2 to be evicted after verification, got %d evictions", n)
	}

	// FinishStream releases the terminal epoch.
	win.FinishStream()
	if r := win.Ready(); len(r) != 0 {
		t.Fatalf("no unverified epochs should remain ready, got %v", r)
	}

	// Late receipts for an evicted epoch are refused, not silently
	// re-opened.
	if err := win.IngestSealed(1, 0, nil, nil); err == nil {
		t.Fatal("expected error ingesting into an evicted epoch")
	}
	if err := win.SealHOP(1, 1); err == nil {
		t.Fatal("expected error sealing an evicted epoch")
	}
	if err := win.MarkVerified(99); err == nil {
		t.Fatal("expected error verifying a segment that never existed")
	}
	if _, err := win.View(99); err == nil {
		t.Fatal("expected error viewing a segment that never existed")
	}

	// A HOP listed twice is expected once: its seal completes the epoch
	// and the epoch's index.
	dup, err := NewWindowedStore([]receipt.HOPID{2, 1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for e := EpochID(0); e <= 1; e++ {
		for _, h := range hops {
			if err := dup.IngestSealed(h, e, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if r := dup.Ready(); len(r) != 1 || r[0] != 0 {
		t.Fatalf("store expecting a HOP twice: ready %v, want [0]", r)
	}
	if st := dup.Stats(); st.IndexedSegments != st.Segments {
		t.Fatalf("store expecting a HOP twice: %d of %d sealed segments indexed", st.IndexedSegments, st.Segments)
	}
}

// TestWindowBoundedUnderRetention is the bounded-memory assertion: a
// long run (40 epochs) with retention 2 never holds more than
// retention + 2 segments (the retained window, the epoch being
// verified, and the epoch being ingested), no matter how many epochs
// have passed.
func TestWindowBoundedUnderRetention(t *testing.T) {
	hops := []receipt.HOPID{1, 2, 3}
	const retention = 2
	win, err := NewWindowedStore(hops, retention)
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 40
	maxHeld := 0
	for e := EpochID(0); e < epochs; e++ {
		for _, h := range hops {
			if err := win.IngestSealed(h, e, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range win.Ready() {
			if err := win.MarkVerified(r); err != nil {
				t.Fatal(err)
			}
		}
		win.Evict()
		if st := win.Stats(); st.Segments > maxHeld {
			maxHeld = st.Segments
		}
	}
	if bound := retention + 2; maxHeld > bound {
		t.Fatalf("window grew to %d segments; bound is %d", maxHeld, bound)
	}
	st := win.Stats()
	if st.Evicted != epochs-uint64(st.Segments) {
		t.Fatalf("eviction accounting off: %+v after %d epochs", st, epochs)
	}
}

// TestRollingVerifierMatchesBatchPerEpochSum: rolling verification
// over the windowed segments visits every receipt exactly once — the
// per-epoch matched-sample totals sum to the count obtained by
// verifying each epoch's receipts directly.
func TestRollingVerifierReportsEpochs(t *testing.T) {
	tc := equivTraceConfig(1, 20_000, int64(2e8))
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	const intervalNS = int64(5e7) // 4 epochs

	path := netsim.Fig1Path(77)
	dep, err := NewDeployment(path, tc.Table(), DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	var hops []receipt.HOPID
	for id := range dep.Collectors {
		hops = append(hops, id)
	}
	win, err := NewWindowedStore(hops, 2)
	if err != nil {
		t.Fatal(err)
	}
	driver, err := NewEpochDriver(dep, intervalNS, win.Sink())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := path.Run(pkts, driver.Observers()); err != nil {
		t.Fatal(err)
	}
	terminal := driver.Close()
	win.FinishStream()

	rolling := NewRollingVerifier(dep.Layout(), dep.VerifierConfig(), win, nil, 0)
	reps, err := rolling.VerifyReady()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != int(terminal)+1 {
		t.Fatalf("expected %d epoch reports, got %d", terminal+1, len(reps))
	}
	var matched int64
	for i, rep := range reps {
		if rep.Epoch != EpochID(i) {
			t.Fatalf("report %d is for epoch %d", i, rep.Epoch)
		}
		matched += rep.MatchedSamples()
		if rep.Violations() != 0 {
			t.Fatalf("healthy path produced violations in epoch %d", rep.Epoch)
		}
	}
	if matched == 0 {
		t.Fatal("no matched samples across any epoch — the workload proved nothing")
	}
	// Each sample is claimed by exactly one epoch, so the per-epoch
	// matched counts sum to the one-shot total.
	oneShot, _ := runDeployment(t, tc, pkts)
	once, _ := onceBytes(t, oneShot, oneShot.Seal)
	if matched != once.MatchedSamples() {
		t.Fatalf("per-epoch matched samples sum to %d, one-shot matched %d", matched, once.MatchedSamples())
	}
	// Everything verified: nothing left in the Ready queue, and a
	// second sweep is a no-op.
	if r := win.Ready(); len(r) != 0 {
		t.Fatalf("epochs still ready after verification: %v", r)
	}
}

// TestRollingVerifierFlagsFaultyLink: continuous operation must still
// expose what batch verification exposes — a lossy inter-domain link
// produces missing-record violations in the per-epoch reports of the
// epochs whose traffic it dropped.
func TestRollingVerifierFlagsFaultyLink(t *testing.T) {
	tc := equivTraceConfig(1, 20_000, int64(2e8))
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	const intervalNS = int64(5e7)

	path := netsim.Fig1Path(77)
	// Heavy loss on the L→X link (between domains 1 and 2).
	ge, err := lossmodel.FromTargetLoss(0.3, 4, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	path.Links[1].Loss = ge
	dc := DefaultDeployConfig()
	dc.Default.SampleRate = 0.05 // dense enough that every epoch sees the hole
	dep, err := NewDeployment(path, tc.Table(), dc)
	if err != nil {
		t.Fatal(err)
	}
	var hops []receipt.HOPID
	for id := range dep.Collectors {
		hops = append(hops, id)
	}
	win, err := NewWindowedStore(hops, 2)
	if err != nil {
		t.Fatal(err)
	}
	driver, err := NewEpochDriver(dep, intervalNS, win.Sink())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := path.Run(pkts, driver.Observers()); err != nil {
		t.Fatal(err)
	}
	driver.Close()
	win.FinishStream()

	rolling := NewRollingVerifier(dep.Layout(), dep.VerifierConfig(), win, nil, 0)
	reps, err := rolling.VerifyReady()
	if err != nil {
		t.Fatal(err)
	}
	flagged := 0
	for _, rep := range reps {
		for _, k := range rep.Keys {
			for _, lv := range k.Links {
				if lv.LinkID == 1 && !lv.Consistent() {
					flagged++
				} else if lv.LinkID != 1 && !lv.Consistent() {
					t.Fatalf("epoch %d: healthy link %v-%v flagged: %v",
						rep.Epoch, lv.Up, lv.Down, lv.Violations[0])
				}
			}
		}
	}
	if flagged < 2 {
		t.Fatalf("lossy link flagged in only %d epoch reports", flagged)
	}
}
