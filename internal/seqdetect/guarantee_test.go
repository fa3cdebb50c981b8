package seqdetect

import (
	"fmt"
	"testing"

	"vpm/internal/stats"
)

// The Monte-Carlo guarantee harness: for each detector family at three
// (α, β) operating points, run M independent seeded simulations, each
// to its first decision, and check the empirical error rates against
// the configured bounds within Wilson-interval slack.
//
// The guarantee a repeated SPRT with a reflecting floor provides is
// Wald's, PER TEST CYCLE. FP: honest stream to the first terminal
// decision, P(Detected) ≤ α. FN: design-magnitude lying stream to the
// first decision, P(Cleared) ≤ β.
//
// The check is one-sided: the Wilson 95% lower bound of the observed
// rate must not exceed the configured bound — if even the interval's
// low edge is above α (resp. β), the guarantee is empirically broken,
// not just unlucky.

type opPoint struct {
	alpha, beta float64
	sims        int
}

// Three operating points; simulation counts scale with the bound so
// the Wilson interval has resolving power at each point.
var opPoints = []opPoint{
	{alpha: 1e-2, beta: 1e-2, sims: 3000},
	{alpha: 1e-3, beta: 1e-2, sims: 8000},
	{alpha: 1e-2, beta: 1e-1, sims: 3000},
}

// decisionCap bounds a first-decision sim; SPRT cycles at these
// operating points decide within hundreds of items.
const decisionCap = 1_000_000

// decider is one simulated detector run: step() advances one evidence
// item and returns the test state.
type decider func() State

// firstDecision drives one sim to its first terminal state.
func firstDecision(t *testing.T, step decider) State {
	t.Helper()
	for i := 0; i < decisionCap; i++ {
		switch st := step(); st {
		case Detected, Cleared:
			return st
		}
	}
	t.Fatal("sequential test reached no decision within the step cap")
	return Undecided
}

// assertRate checks the empirical k/n error rate against bound within
// Wilson slack.
func assertRate(t *testing.T, what string, k, n int, bound float64) {
	t.Helper()
	lo, _ := stats.WilsonInterval(k, n, 0.95)
	if lo > bound {
		t.Errorf("%s: empirical rate %d/%d = %.5f (Wilson lo %.5f) exceeds bound %.5f",
			what, k, n, float64(k)/float64(n), lo, bound)
	}
}

// guaranteeCase builds honest and lying single-detector sims for one
// detector family at one operating point.
type guaranteeCase struct {
	name   string
	honest func(op opPoint, rng *stats.RNG) decider
	lying  func(op opPoint, rng *stats.RNG) decider
}

const (
	gLossP0  = 0.01
	gLossP1  = 0.05
	gRef     = 1_050_000.0
	gShift   = 150_000.0
	gSigma   = 30_000.0
	gBiasSig = 2.0
)

func guaranteeCases() []guaranteeCase {
	bern := func(p float64) func(opPoint, *stats.RNG) decider {
		return func(op opPoint, rng *stats.RNG) decider {
			d := NewBernoulliSPRT(op.alpha, op.beta, gLossP0, gLossP1)
			return func() State { return d.Observe(rng.Bool(p)) }
		}
	}
	gauss := func(mean float64) func(opPoint, *stats.RNG) decider {
		return func(op opPoint, rng *stats.RNG) decider {
			d := NewGaussianSPRT(op.alpha, op.beta, gRef, gShift, gSigma)
			return func() State { return d.Observe(mean + gSigma*rng.NormFloat64()) }
		}
	}

	bias := func(markerShift float64) func(opPoint, *stats.RNG) decider {
		return func(op opPoint, rng *stats.RNG) decider {
			d := NewBiasDetector(Config{
				Alpha: op.alpha, Beta: op.beta,
				BiasShiftSigma: gBiasSig, BiasMinRef: 16,
			}.withDefaults())
			i := 0
			return func() State {
				// Interleave 3 σ-sample reference delays per marker,
				// like the ~25% marker share of the simulator.
				for j := 0; j < 3; j++ {
					d.ObserveRef(gRef + gSigma*rng.NormFloat64())
				}
				i++
				return d.ObserveMarker(gRef + markerShift*gSigma + gSigma*rng.NormFloat64())
			}
		}
	}

	return []guaranteeCase{
		{
			name:   "bernoulli-sprt",
			honest: bern(gLossP0),
			lying:  bern(gLossP1),
		},
		{
			name:   "gaussian-sprt",
			honest: gauss(gRef),
			lying:  gauss(gRef + gShift),
		},
		{
			name:   "bias",
			honest: bias(0),
			lying:  bias(-gBiasSig),
		},
	}
}

// TestGuaranteeFalsePositiveRate: honest streams, empirical
// P(first decision is Detected) ≤ α within Wilson slack, for
// every detector at every operating point. Seeded and deterministic.
func TestGuaranteeFalsePositiveRate(t *testing.T) {
	for pi, op := range opPoints {
		for ci, gc := range guaranteeCases() {
			t.Run(fmt.Sprintf("%s/alpha=%g,beta=%g", gc.name, op.alpha, op.beta), func(t *testing.T) {
				rng := stats.NewRNG(0xF0 ^ uint64(pi*31+ci))
				detected := 0
				for s := 0; s < op.sims; s++ {
					if firstDecision(t, gc.honest(op, rng.Split())) == Detected {
						detected++
					}
				}
				assertRate(t, "false-positive", detected, op.sims, op.alpha)
			})
		}
	}
}

// TestGuaranteeFalseNegativeRate: design-magnitude lying streams,
// empirical P(first decision is Cleared) ≤ β within Wilson slack.
func TestGuaranteeFalseNegativeRate(t *testing.T) {
	for pi, op := range opPoints {
		for ci, gc := range guaranteeCases() {
			t.Run(fmt.Sprintf("%s/alpha=%g,beta=%g", gc.name, op.alpha, op.beta), func(t *testing.T) {
				rng := stats.NewRNG(0xF4 ^ uint64(pi*37+ci))
				missed := 0
				for s := 0; s < op.sims; s++ {
					if firstDecision(t, gc.lying(op, rng.Split())) == Cleared {
						missed++
					}
				}
				assertRate(t, "false-negative", missed, op.sims, op.beta)
			})
		}
	}
}

// TestGuaranteeEngineHonestRun drives whole Engines over honest
// multi-epoch evidence and bounds the run-level false-positive rate:
// the reflecting floor keeps a long honest run's total FP mass at
// ~α (first cycle) + negligible recycled excursions, so across M
// seeded engine runs the fraction with ANY verdict must stay within
// Wilson slack of α.
func TestGuaranteeEngineHonestRun(t *testing.T) {
	const (
		runs       = 600
		epochs     = 8
		perEpoch   = 2000
		markersPer = 120
	)
	cfg := Config{} // defaults: alpha 1e-3, beta 1e-2
	alpha := cfg.withDefaults().Alpha
	rng := stats.NewRNG(0xE17)
	flagged := 0
	for r := 0; r < runs; r++ {
		rr := rng.Split()
		e := NewEngine(cfg)
		f := e.NewFeeder()
		link := Scope{Key: "a->b", Up: 1, Down: 2}
		lossDet, delayDet := f.Detector(link, ClassLoss, 0), f.Detector(link, ClassDelay, 1)
		biasDet := f.Detector(Scope{Domain: "X", Up: 2, Down: 3}, ClassBias, 2)
		any := false
		for ep := uint64(0); ep < epochs; ep++ {
			loss := make([]Evidence, perEpoch)
			for i := range loss {
				if rr.Bool(gLossP0) {
					loss[i] = Evidence{Kind: KindDrop}
				} else {
					loss[i] = Evidence{Kind: KindKeep}
				}
			}
			f.Observe(lossDet, loss)
			deltas := make([]Evidence, perEpoch/2)
			for i := range deltas {
				deltas[i] = Evidence{Kind: KindDelta, Value: gRef + gSigma*rr.NormFloat64()}
			}
			f.Observe(delayDet, deltas)
			biasItems := make([]Evidence, 0, 4*markersPer)
			for i := 0; i < markersPer; i++ {
				for j := 0; j < 3; j++ {
					biasItems = append(biasItems, Evidence{Kind: KindOtherDelta, Value: gRef + gSigma*rr.NormFloat64()})
				}
				biasItems = append(biasItems, Evidence{Kind: KindMarkerDelta, Value: gRef + gSigma*rr.NormFloat64()})
			}
			f.Observe(biasDet, biasItems)
			if len(e.EndEpoch(ep)) > 0 {
				any = true
			}
		}
		if any {
			flagged++
		}
	}
	// Three detectors per run; allow the union bound.
	assertRate(t, "engine honest-run false-positive", flagged, runs, 3*alpha)
}
