package seqdetect

import (
	"math"
	"slices"
	"testing"

	"vpm/internal/stats"
)

func TestBounds(t *testing.T) {
	upper, lower := Bounds(1e-3, 1e-2)
	if upper <= 0 || lower >= 0 {
		t.Fatalf("bounds must bracket zero: upper=%v lower=%v", upper, lower)
	}
	wantU := math.Log((1 - 1e-2) / 1e-3)
	wantL := math.Log(1e-2 / (1 - 1e-3))
	if math.Abs(upper-wantU) > 1e-12 || math.Abs(lower-wantL) > 1e-12 {
		t.Fatalf("bounds = (%v, %v), want (%v, %v)", upper, lower, wantU, wantL)
	}
}

func TestMinDetectableShiftSigma(t *testing.T) {
	if !math.IsInf(MinDetectableShiftSigma(1e-3, 1e-2, 0), 1) {
		t.Fatal("n=0 must be undetectable (infinite shift)")
	}
	// More evidence → smaller detectable shift, monotonically.
	prev := math.Inf(1)
	for _, n := range []int{10, 100, 1000, 10000} {
		s := MinDetectableShiftSigma(1e-3, 1e-2, n)
		if s <= 0 || s >= prev {
			t.Fatalf("MinDetectableShiftSigma(n=%d) = %v, want decreasing positive", n, s)
		}
		prev = s
	}
	// Tighter α raises the bar for the same n.
	if MinDetectableShiftSigma(1e-5, 1e-2, 100) <= MinDetectableShiftSigma(1e-2, 1e-2, 100) {
		t.Fatal("tighter alpha must require a larger shift")
	}
}

func TestBernoulliSPRTDetectsElevatedRate(t *testing.T) {
	b := NewBernoulliSPRT(1e-3, 1e-2, 0.01, 0.05)
	rng := stats.NewRNG(7)
	var st State
	for i := 0; i < 100_000; i++ {
		st = b.Observe(rng.Bool(0.10))
		if st == Detected {
			break
		}
	}
	if st != Detected {
		t.Fatalf("10%% drop rate vs p1=5%% design point not detected in 100k trials (stat=%v)", b.Stat())
	}
}

func TestBernoulliSPRTClearsHonestRate(t *testing.T) {
	b := NewBernoulliSPRT(1e-3, 1e-2, 0.01, 0.05)
	rng := stats.NewRNG(11)
	cleared := 0
	for i := 0; i < 10_000; i++ {
		if b.Observe(rng.Bool(0.01)) == Cleared {
			cleared++
		}
	}
	if cleared == 0 {
		t.Fatal("honest rate never cleared the repeated SPRT in 10k trials")
	}
	if b.Observe(false) == Detected {
		t.Fatal("spurious detection on honest stream")
	}
}

func TestDetectionLatches(t *testing.T) {
	b := NewBernoulliSPRT(1e-2, 1e-2, 0.01, 0.5)
	for i := 0; i < 10_000; i++ {
		b.Observe(true)
	}
	if b.Observe(false) != Detected {
		t.Fatal("detection must latch even when later evidence looks honest")
	}
}

func TestGaussianSPRTDetectsShift(t *testing.T) {
	g := NewGaussianSPRT(1e-3, 1e-2, 1000, 100, 50)
	rng := stats.NewRNG(3)
	var st State
	for i := 0; i < 10_000; i++ {
		st = g.Observe(1000 + 100 + 50*rng.NormFloat64())
		if st == Detected {
			break
		}
	}
	if st != Detected {
		t.Fatalf("design-point shift not detected (stat=%v)", g.Stat())
	}
}

func TestGaussianSPRTNegativeShift(t *testing.T) {
	g := NewGaussianSPRT(1e-3, 1e-2, 0, -2, 1)
	rng := stats.NewRNG(5)
	var st State
	for i := 0; i < 10_000; i++ {
		st = g.Observe(-2 + rng.NormFloat64())
		if st == Detected {
			break
		}
	}
	if st != Detected {
		t.Fatal("negative design shift (marker bias direction) not detected")
	}
}

func TestBiasDetectorWarmup(t *testing.T) {
	cfg := DefaultConfig()
	b := NewBiasDetector(cfg)
	// Markers before the reference is warm must not decide.
	for i := 0; i < cfg.BiasMinRef; i++ {
		if st := b.ObserveMarker(0); st != Undecided {
			t.Fatalf("marker %d before warmup decided %v", i, st)
		}
	}
}

func TestBiasDetectorDetectsFastMarkers(t *testing.T) {
	cfg := DefaultConfig()
	b := NewBiasDetector(cfg)
	rng := stats.NewRNG(17)
	var st State
	for i := 0; i < 50_000; i++ {
		// σ-samples at 1000±50; markers 3σ faster.
		b.ObserveRef(1000 + 50*rng.NormFloat64())
		if i%4 == 0 {
			st = b.ObserveMarker(1000 - 150 + 50*rng.NormFloat64())
			if st == Detected {
				break
			}
		}
	}
	if st != Detected {
		t.Fatal("3-sigma-fast markers never detected")
	}
}

func TestBiasDetectorHonestMarkers(t *testing.T) {
	cfg := DefaultConfig()
	b := NewBiasDetector(cfg)
	rng := stats.NewRNG(19)
	for i := 0; i < 50_000; i++ {
		b.ObserveRef(1000 + 50*rng.NormFloat64())
		if i%4 == 0 {
			if st := b.ObserveMarker(1000 + 50*rng.NormFloat64()); st == Detected {
				t.Fatalf("honest markers detected at i=%d", i)
			}
		}
	}
}

// makeLossStream builds a deterministic evidence stream with drops at
// the given rate.
func makeLossStream(n int, dropRate float64, seed uint64) []Evidence {
	rng := stats.NewRNG(seed)
	out := make([]Evidence, n)
	for i := range out {
		if rng.Bool(dropRate) {
			out[i] = Evidence{Kind: KindDrop}
		} else {
			out[i] = Evidence{Kind: KindKeep}
		}
	}
	return out
}

func TestEngineEmitsVerdictOnce(t *testing.T) {
	e := NewEngine(Config{})
	f := e.NewFeeder()
	d := f.Detector(Scope{Key: "a->b", Up: 1, Down: 2}, ClassLoss, 0)
	stream := makeLossStream(4000, 0.30, 23)
	f.Observe(d, stream[:2000])
	vs := e.EndEpoch(0)
	if len(vs) != 1 {
		t.Fatalf("epoch 0: got %d verdicts, want 1", len(vs))
	}
	emitted := slices.Clone(vs)
	v := vs[0]
	if v.Class != ClassLoss || v.Up != 1 || v.Down != 2 || v.Key != "a->b" {
		t.Fatalf("verdict scope mismatch: %+v", v)
	}
	if v.Epoch != 0 || v.Frac <= 0 || v.Frac > 1 {
		t.Fatalf("verdict epoch/frac out of range: %+v", v)
	}
	if v.Frac == 1 {
		t.Fatalf("30%% drops over 2000 trials should cross mid-epoch, got frac=1")
	}
	if v.Alpha != e.Config().Alpha || v.Beta != e.Config().Beta {
		t.Fatalf("verdict must carry configured error bounds: %+v", v)
	}
	if len(v.Trajectory) == 0 {
		t.Fatal("verdict must carry the statistic trajectory")
	}
	// Later epochs must not re-emit.
	f.Observe(d, stream[2000:])
	vs = e.EndEpoch(1)
	if len(vs) != 0 {
		t.Fatalf("epoch 1 re-emitted %d verdicts", len(vs))
	}
	if emitted = append(emitted, vs...); len(emitted) != 1 {
		t.Fatalf("EndEpoch emitted %d verdicts over two epochs, want 1", len(emitted))
	}
}

func TestEngineEpochsToVerdict(t *testing.T) {
	v := SeqVerdict{Epoch: 2, Frac: 0.25}
	if got := v.EpochsToVerdict(); got != 2.25 {
		t.Fatalf("EpochsToVerdict = %v, want 2.25", got)
	}
}

func TestEngineHonestStreamStaysQuiet(t *testing.T) {
	e := NewEngine(Config{})
	f := e.NewFeeder()
	d := f.Detector(Scope{Key: "a->b", Up: 1, Down: 2}, ClassLoss, 0)
	for ep := uint64(0); ep < 8; ep++ {
		f.Observe(d, makeLossStream(5000, 0.01, 100+ep))
		if vs := e.EndEpoch(ep); len(vs) != 0 {
			t.Fatalf("honest stream flagged at epoch %d: %+v", ep, vs)
		}
	}
}

// TestRechunkingInvariance is the property test the issue names: the
// same evidence stream fed in different chunk sizes must yield
// identical crossing points (epoch, frac, N) for every detector.
func TestRechunkingInvariance(t *testing.T) {
	stream := makeLossStream(6000, 0.08, 31)
	deltas := make([]Evidence, 3000)
	rng := stats.NewRNG(37)
	for i := range deltas {
		deltas[i] = Evidence{Kind: KindDelta, Value: 1_050_000 + 150_000 + 30_000*rng.NormFloat64()}
	}
	epochLen := 1500 // loss items per epoch (deltas: half)

	run := func(chunk int) []SeqVerdict {
		e := NewEngine(Config{})
		f := e.NewFeeder()
		lossDet := f.Detector(Scope{Key: "a->b", Up: 1, Down: 2}, ClassLoss, 0)
		delayDet := f.Detector(Scope{Key: "a->b", Up: 2, Down: 3}, ClassDelay, 1)
		var all []SeqVerdict
		for ep := 0; ep < 4; ep++ {
			ls := stream[ep*epochLen : (ep+1)*epochLen]
			ds := deltas[ep*epochLen/2 : (ep+1)*epochLen/2]
			for i := 0; i < len(ls); i += chunk {
				end := i + chunk
				if end > len(ls) {
					end = len(ls)
				}
				f.Observe(lossDet, ls[i:end])
			}
			for i := 0; i < len(ds); i += chunk {
				end := i + chunk
				if end > len(ds) {
					end = len(ds)
				}
				f.Observe(delayDet, ds[i:end])
			}
			all = append(all, e.EndEpoch(uint64(ep))...)
		}
		return all
	}

	ref := run(len(stream)) // one big chunk
	if len(ref) == 0 {
		t.Fatal("reference run detected nothing; test needs a detectable stream")
	}
	for _, chunk := range []int{1, 7, 64, 333, 1500} {
		got := run(chunk)
		if len(got) != len(ref) {
			t.Fatalf("chunk=%d: %d verdicts, want %d", chunk, len(got), len(ref))
		}
		for i := range got {
			g, r := got[i], ref[i]
			if g.Epoch != r.Epoch || g.Frac != r.Frac || g.N != r.N || g.Class != r.Class {
				t.Fatalf("chunk=%d verdict %d: (epoch=%d frac=%v n=%d) != ref (epoch=%d frac=%v n=%d)",
					chunk, i, g.Epoch, g.Frac, g.N, r.Epoch, r.Frac, r.N)
			}
		}
	}
}

// The mixed-slice contract: items irrelevant to a class are skipped,
// so feeding one combined slice per scope works.
func TestEngineMixedSlice(t *testing.T) {
	mixed := []Evidence{
		{Kind: KindKeep}, {Kind: KindDrop},
		{Kind: KindDelta, Value: 1_050_000},
		{Kind: KindMarkerDelta, Value: 900_000},
		{Kind: KindOtherDelta, Value: 1_000_000},
	}
	e := NewEngine(Config{})
	f := e.NewFeeder()
	scope := Scope{Key: "k", Up: 1, Down: 2}
	dLoss, dDelay := f.Detector(scope, ClassLoss, 0), f.Detector(scope, ClassDelay, 1)
	f.Observe(dLoss, mixed)
	f.Observe(dDelay, mixed)
	e.EndEpoch(0)
	// Loss detector saw exactly 2 trials, delay exactly 1 delta.
	if dLoss.items != 2 {
		t.Fatalf("loss items = %d, want 2", dLoss.items)
	}
	if dDelay.items != 1 {
		t.Fatalf("delay items = %d, want 1", dDelay.items)
	}
}

// TestTrajectoryRingBounded: a detector fed every epoch keeps O(cap)
// points however long it runs, and its verdict carries the last cap
// epochs' statistics.
func TestTrajectoryRingBounded(t *testing.T) {
	const trajCap = 4
	e := NewEngine(Config{TrajectoryCap: trajCap})
	f := e.NewFeeder()
	d := f.Detector(Scope{Key: "k", Up: 1, Down: 2}, ClassLoss, 0)
	for ep := uint64(0); ep < 20; ep++ {
		f.Observe(d, makeLossStream(100, 0.01, ep))
		e.EndEpoch(ep)
		if cap(d.pts) > 2*(trajCap+1) {
			t.Fatalf("epoch %d: %d points held (capacity %d), cap %d", ep, len(d.pts), cap(d.pts), trajCap)
		}
	}
	f.Observe(d, makeLossStream(2000, 0.5, 99))
	vs := e.EndEpoch(20)
	if len(vs) != 1 || len(vs[0].Trajectory) != trajCap {
		t.Fatalf("verdicts %+v, want one with a %d-epoch trajectory", vs, trajCap)
	}
}

func TestConfigWithDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	d := DefaultConfig()
	if c != d {
		t.Fatalf("zero config must fill to defaults: %+v != %+v", c, d)
	}
	c = Config{Alpha: 0.05}.withDefaults()
	if c.Alpha != 0.05 || c.Beta != d.Beta {
		t.Fatalf("partial config must keep set fields: %+v", c)
	}
}

// TestEndEpochIgnoresIdleDetectors: an epoch's close costs the detectors
// fed in it, not every detector the engine ever made. With 10 000
// detectors created in epoch 0 and one fed per epoch after that, each
// EndEpoch visits exactly the one fed and, with no crossing, allocates
// nothing.
func TestEndEpochIgnoresIdleDetectors(t *testing.T) {
	const n = 10_000
	e := NewEngine(Config{})
	f := e.NewFeeder()
	dets := make([]*Detector, n)
	for i := range dets {
		dets[i] = f.Detector(Scope{Key: "k", Up: uint32(i), Down: uint32(i + 1)}, ClassLoss, uint64(i))
	}
	if len(f.fed) != n {
		t.Fatalf("%d detectors listed after creating %d", len(f.fed), n)
	}
	e.EndEpoch(0)
	keep := []Evidence{{Kind: KindKeep}}
	epoch := uint64(1)
	allocs := testing.AllocsPerRun(200, func() {
		f.Observe(dets[epoch%n], keep)
		if len(f.fed) != 1 {
			t.Fatalf("epoch %d: %d detectors listed, want the one fed", epoch, len(f.fed))
		}
		if vs := e.EndEpoch(epoch); vs != nil {
			t.Fatalf("epoch %d: unexpected verdicts %+v", epoch, vs)
		}
		epoch++
	})
	if allocs != 0 {
		t.Fatalf("EndEpoch with one detector fed allocates %.1f times, want 0", allocs)
	}
}

// TestCrossingsEmitInCreationOrder: two detectors crossing in one epoch
// emit in the order they were created, not the order they were fed.
func TestCrossingsEmitInCreationOrder(t *testing.T) {
	e := NewEngine(Config{})
	f := e.NewFeeder()
	first := f.Detector(Scope{Key: "k", Up: 1, Down: 2}, ClassLoss, 0)
	second := f.Detector(Scope{Key: "k", Up: 2, Down: 3}, ClassLoss, 1)
	drops := makeLossStream(200, 0.5, 7)
	f.Observe(second, drops)
	f.Observe(first, drops)
	vs := e.EndEpoch(0)
	if len(vs) != 2 || vs[0].Up != 1 || vs[1].Up != 2 {
		t.Fatalf("verdicts %+v, want link 1→2 then 2→3", vs)
	}
}

// NewBernoulliSPRT builds the test. Requires 0 < p0 < p1 < 1.
func NewBernoulliSPRT(alpha, beta, p0, p1 float64) *BernoulliSPRT {
	b := newBernoulliSPRT(alpha, beta, p0, p1)
	return &b
}

// NewGaussianSPRT builds the test. Requires sigma > 0 and shift != 0.
func NewGaussianSPRT(alpha, beta, ref, shift, sigma float64) *GaussianSPRT {
	g := newGaussianSPRT(alpha, beta, ref, shift, sigma)
	return &g
}

// NewBiasDetector builds the detector.
func NewBiasDetector(cfg Config) *BiasDetector {
	mean := newBiasMean(cfg)
	return &BiasDetector{minRef: cfg.BiasMinRef, mean: &mean}
}

// Config returns the engine's effective (default-filled) config.
func (e *Engine) Config() Config { return e.cfg }
