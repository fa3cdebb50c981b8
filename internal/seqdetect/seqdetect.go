// Package seqdetect implements sequential hypothesis tests over the
// evidence streams the batch verifier already judges per epoch: a
// Wald SPRT for each of the three evidence classes — loss/suppression
// (Bernoulli drop rate), delay underreporting (sub-Gaussian mean shift
// vs σ), and marker bias (marker vs σ-sample delay split).
//
// The batch checks in core flag a lying domain only after a full
// interval closes, and an adversary shaving just under the noise
// floor is never flagged at all. A sequential test instead
// accumulates the log-likelihood ratio
//
//	Λ_n = Σ_i log( P(x_i | lying) / P(x_i | honest) )
//
// per evidence item and raises a verdict the moment Λ_n crosses
// A = log((1−β)/α); it accepts honesty (and restarts) when Λ_n falls
// below B = log(β/(1−α)). Wald's bounds make the error rates
// provable: false positives ≤ α per test cycle, false negatives ≤ β
// at the design magnitude — verified empirically by the seeded
// Monte-Carlo guarantee tests in this package.
//
// Every detector holds O(1) state per (link, key): a log-likelihood
// (or sufficient statistics) plus the statistic at the epochs it was
// fed, bounded by the trajectory the verdict it may eventually emit
// carries. Detection latches; an
// accept-honest crossing clamps the statistic at the lower bound B (a
// reflecting floor) and keeps watching, so a duty-cycling adversary
// that goes quiet cannot retire its detector — it only buys itself
// the bounded extra climb A−B. The floor is what keeps long honest
// streams safe: the first test cycle obeys Wald's FP ≤ α, and each
// recycled excursion from the floor carries only ≤ αβ false-positive
// mass, instead of a fresh ~α per cycle as a reset-to-zero repeated
// SPRT would.
package seqdetect

import "math"

// State is a sequential test's decision state after an observation.
type State uint8

// Test states.
const (
	// Undecided: the statistic is between the two thresholds.
	Undecided State = iota
	// Detected: the statistic crossed the upper (reject-honest)
	// threshold. Detection latches.
	Detected
	// Cleared: the statistic crossed the lower (accept-honest)
	// threshold. The test resets and keeps watching (repeated SPRT);
	// Cleared is reported for the crossing observation only.
	Cleared
)

// Config parameterizes the detectors of one Engine. The zero value is
// not usable; start from DefaultConfig.
type Config struct {
	// Alpha and Beta are the target false-positive and false-negative
	// rates. Thresholds: A = log((1−β)/α), B = log(β/(1−α)).
	Alpha, Beta float64

	// LossP0 and LossP1 are the honest (noise-floor) and design-point
	// alternative drop probabilities of the Bernoulli loss and
	// fabrication detectors.
	LossP0, LossP1 float64

	// DelayRefNS and DelaySigmaNS are the honest link-delta reference
	// mean and sub-Gaussian scale; DelayShiftNS is the design-point
	// mean shift the delay detector tests against. These are
	// deployment constants, like MaxDiff: the verifier reasons from
	// the advertised link characteristics, not from self-calibration
	// an adversary active since epoch 0 could poison.
	DelayRefNS, DelaySigmaNS, DelayShiftNS float64

	// BiasShiftSigma is the design-point marker-vs-σ-sample mean
	// split, in units of the σ-sample delay spread. BiasMinRef is how
	// many σ-sample (non-marker) delays the detector must absorb
	// before it starts scoring markers against them.
	BiasShiftSigma float64
	BiasMinRef     int

	// TrajectoryCap bounds the per-epoch statistic trajectory a
	// verdict carries (the most recent epochs), and with it the points
	// a detector keeps to rebuild it, keeping detector state O(1).
	TrajectoryCap int

	// ClipLLR caps how far the statistic may move TOWARD detection on
	// one evidence item. Top-clipping keeps exp(Λ) a supermartingale
	// under H0 (clipped upward steps only shrink it), so Ville's
	// false-positive bound survives — while no single honest outlier
	// can jump a detector from its floor across the threshold; a
	// crossing always takes ≥ (A−B)/ClipLLR consistent items.
	// Honest-ward (downward) moves are never clipped.
	ClipLLR float64
}

// DefaultConfig returns the operating point the continuous pipeline
// uses: α = 1e-3, β = 1e-2, with evidence-class parameters matched to
// the simulator's healthy-path constants (1 ms link delay + 0.1 ms
// uniform jitter → reference 1.05 ms, scale ~30 µs).
func DefaultConfig() Config {
	return Config{
		Alpha:          1e-3,
		Beta:           1e-2,
		LossP0:         0.01,
		LossP1:         0.05,
		DelayRefNS:     1_050_000,
		DelaySigmaNS:   30_000,
		DelayShiftNS:   150_000,
		BiasShiftSigma: 2.0,
		BiasMinRef:     16,
		TrajectoryCap:  64,
		ClipLLR:        2.0,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Alpha <= 0 {
		c.Alpha = d.Alpha
	}
	if c.Beta <= 0 {
		c.Beta = d.Beta
	}
	if c.LossP0 <= 0 {
		c.LossP0 = d.LossP0
	}
	if c.LossP1 <= 0 {
		c.LossP1 = d.LossP1
	}
	if c.DelayRefNS == 0 {
		c.DelayRefNS = d.DelayRefNS
	}
	if c.DelaySigmaNS <= 0 {
		c.DelaySigmaNS = d.DelaySigmaNS
	}
	if c.DelayShiftNS == 0 {
		c.DelayShiftNS = d.DelayShiftNS
	}
	if c.BiasShiftSigma == 0 {
		c.BiasShiftSigma = d.BiasShiftSigma
	}
	if c.BiasMinRef <= 0 {
		c.BiasMinRef = d.BiasMinRef
	}
	if c.TrajectoryCap <= 0 {
		c.TrajectoryCap = d.TrajectoryCap
	}
	if c.ClipLLR <= 0 {
		c.ClipLLR = d.ClipLLR
	}
	return c
}

// Bounds returns Wald's log thresholds for the configured error
// rates: upper A = log((1−β)/α) (reject honest), lower
// B = log(β/(1−α)) (accept honest).
func Bounds(alpha, beta float64) (upper, lower float64) {
	return math.Log((1 - beta) / alpha), math.Log(beta / (1 - alpha))
}

// MinDetectableShiftSigma returns the smallest mean shift, in σ
// units, a Gaussian SPRT at (α, β) can expect to detect within n
// evidence items: the shift where the expected LLR drift over n
// observations just reaches the detection threshold,
// δ/σ = sqrt(2·log((1−β)/α)/n). Used for the attack matrix's
// minimum-detectable-magnitude column.
func MinDetectableShiftSigma(alpha, beta float64, n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	upper, _ := Bounds(alpha, beta)
	return math.Sqrt(2 * upper / float64(n))
}

// DefaultClipLLR is the per-item statistic step cap detectors built
// outside an Engine use; see Config.ClipLLR.
const DefaultClipLLR = 2.0

// test is the shared sequential-test core: a statistic with Wald
// thresholds, latch-on-detect, clamp-at-floor-on-clear semantics, and
// a top-clipped per-item step.
type test struct {
	upper, lower float64
	clip         float64
	stat         float64
	n            uint64
	detected     bool
}

func newTest(alpha, beta float64) test {
	u, l := Bounds(alpha, beta)
	return test{upper: u, lower: l, clip: DefaultClipLLR}
}

// step folds one statistic value (absolute, not incremental) and
// applies the thresholds. Upward movement is rate-limited to clip per
// item; the clipped statistic is pointwise ≤ the raw one, so Ville's
// bound on the raw process covers the clipped one.
func (t *test) step(stat float64) State {
	t.n++
	if t.detected {
		return Detected
	}
	if t.clip > 0 && stat > t.stat+t.clip {
		stat = t.stat + t.clip
	}
	t.stat = stat
	if stat >= t.upper {
		t.detected = true
		return Detected
	}
	if stat <= t.lower {
		// Reflecting floor: clamp at B instead of resetting to zero.
		// The first cycle keeps Wald's FP ≤ α; every later excursion
		// must climb A−B from the floor, so its false-positive mass is
		// ≤ e^{−(A−B)} = αβ/((1−α)(1−β)) — long honest streams do not
		// accumulate ~α risk per recycle the way a reset-to-zero
		// repeated SPRT does.
		t.stat = t.lower
		return Cleared
	}
	return Undecided
}

// setClip overrides the per-item upward step cap.
func (t *test) setClip(c float64) { t.clip = c }

// Stat returns the current statistic (log-likelihood ratio).
func (t *test) Stat() float64 { return t.stat }

// BernoulliSPRT tests H0: p = P0 against H1: p = P1 over a stream of
// Bernoulli trials (success = the lie-consistent outcome, e.g. an
// expected-but-missing downstream record).
type BernoulliSPRT struct {
	test
	llrHit, llrMiss float64
}

func newBernoulliSPRT(alpha, beta, p0, p1 float64) BernoulliSPRT {
	return BernoulliSPRT{
		test:    newTest(alpha, beta),
		llrHit:  math.Log(p1 / p0),
		llrMiss: math.Log((1 - p1) / (1 - p0)),
	}
}

// Observe folds one trial.
func (b *BernoulliSPRT) Observe(success bool) State {
	inc := b.llrMiss
	if success {
		inc = b.llrHit
	}
	return b.step(b.stat + inc)
}

// GaussianSPRT tests H0: mean = Ref against H1: mean = Ref + Shift
// for observations with sub-Gaussian scale Sigma. Shift may be
// negative (markers faster than σ-samples). The Gaussian LLR is
// valid for any sub-Gaussian noise of scale ≤ Sigma: lighter tails
// only slow the honest drift toward the lower bound.
type GaussianSPRT struct {
	test
	ref, shift, sigma2 float64
}

func newGaussianSPRT(alpha, beta, ref, shift, sigma float64) GaussianSPRT {
	return GaussianSPRT{test: newTest(alpha, beta), ref: ref, shift: shift, sigma2: sigma * sigma}
}

// Observe folds one observation.
func (g *GaussianSPRT) Observe(x float64) State {
	// log N(x; ref+shift, σ²) − log N(x; ref, σ²)
	inc := g.shift / g.sigma2 * (x - g.ref - g.shift/2)
	return g.step(g.stat + inc)
}

// BiasDetector scores the marker-vs-σ-sample delay split of one
// domain: σ-sample (non-marker) delays feed a Welford running
// mean/variance reference; each marker delay is standardized against
// it and fed to a Gaussian test for a −BiasShiftSigma mean shift
// (markers systematically faster than the σ-keyed samples they should
// be a uniform subsample of). The reference is O(1) state.
type BiasDetector struct {
	refN           uint64
	refMean, refM2 float64
	minRef         int
	mean           *GaussianSPRT
}

// newBiasMean builds a bias detector's scored test: standardized marker
// delays against a −BiasShiftSigma mean shift.
func newBiasMean(cfg Config) GaussianSPRT {
	return newGaussianSPRT(cfg.Alpha, cfg.Beta, 0, -cfg.BiasShiftSigma, 1)
}

// ObserveRef folds one σ-sample (non-marker) delay into the
// reference distribution.
func (b *BiasDetector) ObserveRef(x float64) {
	b.refN++
	d := x - b.refMean
	b.refMean += d / float64(b.refN)
	b.refM2 += d * (x - b.refMean)
}

// ObserveMarker scores one marker delay against the reference.
// Markers seen before the reference is warm are absorbed without a
// decision.
func (b *BiasDetector) ObserveMarker(x float64) State {
	if b.refN < uint64(b.minRef) || b.refM2 <= 0 {
		return Undecided
	}
	sd := math.Sqrt(b.refM2 / float64(b.refN-1))
	if sd <= 0 {
		return Undecided
	}
	// Predictive scale: a fresh draw scatters around the ESTIMATED
	// mean with variance σ²(1 + 1/n); without the correction the
	// small-sample z-scores have t-tails heavier than the N(0,1) the
	// Gaussian test assumes, inflating false positives at tight α.
	sd *= math.Sqrt(1 + 1/float64(b.refN))
	return b.mean.Observe((x - b.refMean) / sd)
}

// setClip forwards the step cap to the underlying mean test.
func (b *BiasDetector) setClip(c float64) { b.mean.setClip(c) }

// Stat returns the running statistic of the underlying mean test.
func (b *BiasDetector) Stat() float64 { return b.mean.Stat() }
