package quantile

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"vpm/internal/stats"
)

func TestQuantileValidation(t *testing.T) {
	if _, err := Quantile(nil, 0.5, 0.95); err == nil {
		t.Error("empty samples accepted")
	}
	xs := []float64{1, 2, 3}
	if _, err := Quantile(xs, -0.1, 0.95); err == nil {
		t.Error("negative q accepted")
	}
	if _, err := Quantile(xs, 1.1, 0.95); err == nil {
		t.Error("q>1 accepted")
	}
	if _, err := Quantile(xs, 0.5, 0); err == nil {
		t.Error("zero confidence accepted")
	}
	if _, err := Quantile(xs, 0.5, 1); err == nil {
		t.Error("confidence 1 accepted")
	}
}

func TestQuantilePointEstimate(t *testing.T) {
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = float64(i) * 1e6 // 0..1000 ms
	}
	e, err := Quantile(xs, 0.9, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Point-900e6) > 1e6 {
		t.Errorf("point = %v, want ~900ms", e.Point)
	}
	if !e.Exact {
		t.Error("1001 samples should give exact bounds at 95%")
	}
	if e.Lo > e.Point || e.Hi < e.Point {
		t.Errorf("interval [%v,%v] excludes point %v", e.Lo, e.Hi, e.Point)
	}
	if e.Width() <= 0 {
		t.Error("zero-width interval")
	}
	if e.String() == "" {
		t.Error("empty String()")
	}
}

func TestQuantileSmallSampleFallback(t *testing.T) {
	xs := []float64{5, 1}
	e, err := Quantile(xs, 0.5, 0.9999)
	if err != nil {
		t.Fatal(err)
	}
	if e.Exact {
		t.Error("2 samples cannot give 99.99% bounds")
	}
	if e.Lo != 1 || e.Hi != 5 {
		t.Errorf("fallback bounds [%v,%v], want sample extremes", e.Lo, e.Hi)
	}
}

func TestQuantileCoverage(t *testing.T) {
	// Empirical coverage of the interval across resamples of a skewed
	// distribution.
	r := stats.NewRNG(3)
	const n = 300
	const trials = 500
	const q = 0.9
	const conf = 0.95
	covered := 0
	// Ground truth for Exp(1): q90 = -ln(0.1).
	truth := -math.Log(1 - q)
	xs := make([]float64, n)
	for tr := 0; tr < trials; tr++ {
		for i := range xs {
			xs[i] = r.ExpFloat64()
		}
		e, err := Quantile(xs, q, conf)
		if err != nil {
			t.Fatal(err)
		}
		if e.Lo <= truth && truth <= e.Hi {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < conf-0.04 {
		t.Errorf("coverage %v below nominal %v", rate, conf)
	}
}

func TestQuantiles(t *testing.T) {
	xs := make([]float64, 500)
	r := stats.NewRNG(5)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	es, err := Quantiles(xs, DefaultQuantiles, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 3 {
		t.Fatalf("%d estimates", len(es))
	}
	if !(es[0].Point <= es[1].Point && es[1].Point <= es[2].Point) {
		t.Error("quantile points not monotone")
	}
	if _, err := Quantiles(nil, DefaultQuantiles, 0.95); err == nil {
		t.Error("empty input accepted")
	}
}

// TestBoundsMemoMatchesDirect: every bound the memo hands out, on the
// call that fills its slot and on the calls that find it filled, is
// the one stats.QuantileOrderBounds computes. A second memo has had
// its lanes taken by other pairs first, so it answers from the direct
// computation, and must come out the same.
func TestBoundsMemoMatchesDirect(t *testing.T) {
	for _, conf := range []float64{0.9, 0.95, 0.99} {
		t.Run(fmt.Sprint(conf), func(t *testing.T) {
			t.Parallel()
			memo, full := new(BoundsMemo), new(BoundsMemo)
			for lane := range memoPairs {
				full.OrderBounds(1, 0.01*float64(lane+1), conf)
			}
			for n := 1; n <= 10_000; n++ {
				for _, q := range DefaultQuantiles {
					lo, hi, ok := stats.QuantileOrderBounds(n, q, conf)
					for _, m := range []*BoundsMemo{memo, memo, full} {
						if mlo, mhi, mok := m.OrderBounds(n, q, conf); mlo != lo || mhi != hi || mok != ok {
							t.Fatalf("OrderBounds(%d, %v, %v) = (%d, %d, %v), direct (%d, %d, %v)", n, q, conf, mlo, mhi, mok, lo, hi, ok)
						}
					}
				}
			}
		})
	}
}

// TestWarmBoundsMemoAllocatesNothing: once its slots hold the sample
// counts asked for, the memo answers without allocating.
func TestWarmBoundsMemoAllocatesNothing(t *testing.T) {
	memo := new(BoundsMemo)
	sweep := func() {
		for n := 200; n < 200+memoSlots/memoPairs; n++ {
			for _, q := range DefaultQuantiles {
				memo.OrderBounds(n, q, 0.95)
			}
		}
	}
	sweep()
	if allocs := testing.AllocsPerRun(20, sweep); allocs != 0 {
		t.Fatalf("a warm sweep allocates %v times", allocs)
	}
}

func TestAccuracyPerfectSampling(t *testing.T) {
	// Sampling everything => zero error.
	xs := make([]float64, 10000)
	r := stats.NewRNG(7)
	for i := range xs {
		xs[i] = r.ExpFloat64() * 1e6
	}
	acc, err := AccuracyNS(xs, xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0 {
		t.Errorf("accuracy %v for identical sets", acc)
	}
}

func TestAccuracyShrinksWithSampleSize(t *testing.T) {
	// More samples => better accuracy, on average over resamples.
	r := stats.NewRNG(9)
	truth := make([]float64, 200000)
	for i := range truth {
		truth[i] = r.ExpFloat64() * 10e6 // mean 10ms
	}
	meanAcc := func(k int) float64 {
		total := 0.0
		const reps = 10
		for rep := 0; rep < reps; rep++ {
			sample := make([]float64, k)
			for i := range sample {
				sample[i] = truth[r.Intn(len(truth))]
			}
			a, err := AccuracyNS(sample, truth, nil)
			if err != nil {
				t.Fatal(err)
			}
			total += a
		}
		return total / reps
	}
	small := meanAcc(100)
	big := meanAcc(10000)
	if big >= small {
		t.Errorf("accuracy did not improve with samples: n=100 -> %v, n=10000 -> %v", small, big)
	}
}

func TestAccuracyValidation(t *testing.T) {
	if _, err := AccuracyNS(nil, []float64{1}, nil); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := AccuracyNS([]float64{1}, nil, nil); err == nil {
		t.Error("empty truth accepted")
	}
}

func TestAccuracyCustomQuantiles(t *testing.T) {
	truth := make([]float64, 1000)
	for i := range truth {
		truth[i] = float64(i)
	}
	sample := make([]float64, len(truth))
	copy(sample, truth)
	// Corrupt only the extreme tail: p50/p90 unaffected, p999 moves.
	sort.Float64s(sample)
	sample[len(sample)-1] = 1e9
	aMid, _ := AccuracyNS(sample, truth, []float64{0.5})
	aTail, _ := AccuracyNS(sample, truth, []float64{0.9999})
	if aMid != 0 {
		t.Errorf("median accuracy %v, want 0", aMid)
	}
	if aTail == 0 {
		t.Error("tail corruption invisible to p9999")
	}
}

func BenchmarkQuantile(b *testing.B) {
	r := stats.NewRNG(1)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.ExpFloat64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Quantile(xs, 0.9, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}

// Width returns the confidence interval width in nanoseconds — the
// verifier's "accuracy" handle on its own estimate.
func (e Estimate) Width() float64 { return e.Hi - e.Lo }
