package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); !almost(v, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", v)
	}
	if sd := StdDev(xs); !almost(sd, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", sd)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Variance([]float64{1}) != 0 {
		t.Error("Variance of singleton != 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Max(xs) != 5 {
		t.Errorf("Max = %v", Max(xs))
	}
}

func TestQuantileExtremes(t *testing.T) {
	xs := []float64{5, 1, 3}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if q := Quantile(xs, 0.25); !almost(q, 2.5, 1e-12) {
		t.Errorf("q.25 = %v, want 2.5", q)
	}
}

func TestQuantileMonotone(t *testing.T) {
	r := NewRNG(1)
	f := func(seed uint32) bool {
		rr := NewRNG(uint64(seed))
		n := rr.Intn(200) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.N != 1000 || s.Min != 0 || s.Max != 999 {
		t.Fatalf("bad summary: %+v", s)
	}
	if !almost(s.Mean, 499.5, 1e-9) {
		t.Errorf("mean = %v", s.Mean)
	}
	if !almost(s.P50, 499.5, 1e-9) {
		t.Errorf("p50 = %v", s.P50)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatal("non-zero N for empty input")
	}
}

func TestBinomPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 5, 50, 500} {
		for _, p := range []float64{0.01, 0.3, 0.5, 0.97} {
			s := 0.0
			for k := 0; k <= n; k++ {
				s += BinomPMF(n, k, p)
			}
			if !almost(s, 1, 1e-9) {
				t.Errorf("PMF(n=%d,p=%v) sums to %v", n, p, s)
			}
		}
	}
}

func TestBinomPMFKnown(t *testing.T) {
	// Binomial(4, 0.5): P[X=2] = 6/16.
	if p := BinomPMF(4, 2, 0.5); !almost(p, 0.375, 1e-12) {
		t.Errorf("PMF = %v, want 0.375", p)
	}
	if BinomPMF(4, -1, 0.5) != 0 || BinomPMF(4, 5, 0.5) != 0 {
		t.Error("out-of-support PMF not zero")
	}
	if BinomPMF(4, 0, 0) != 1 || BinomPMF(4, 4, 1) != 1 {
		t.Error("degenerate p PMF wrong")
	}
}

func TestBinomCDFProperties(t *testing.T) {
	n, p := 30, 0.2
	prev := 0.0
	for k := 0; k <= n; k++ {
		c := BinomCDF(n, k, p)
		if c < prev-1e-12 {
			t.Fatalf("CDF not monotone at k=%d", k)
		}
		prev = c
	}
	if !almost(BinomCDF(n, n, p), 1, 1e-12) {
		t.Error("CDF(n) != 1")
	}
	if BinomCDF(n, -1, p) != 0 {
		t.Error("CDF(-1) != 0")
	}
	// Cross-check against direct sum.
	s := 0.0
	for k := 0; k <= 7; k++ {
		s += BinomPMF(n, k, p)
	}
	if c := BinomCDF(n, 7, p); !almost(c, s, 1e-9) {
		t.Errorf("CDF(7) = %v, direct sum %v", c, s)
	}
}

func TestQuantileOrderBoundsCoverage(t *testing.T) {
	// Empirically verify coverage: for n samples of U(0,1), the true
	// q-quantile (=q) should fall within [x_(lo), x_(hi)] at least
	// conf of the time (allowing simulation noise).
	r := NewRNG(77)
	const n = 200
	const q = 0.9
	const conf = 0.95
	lo, hi, ok := QuantileOrderBounds(n, q, conf)
	if !ok {
		t.Fatal("bounds not found")
	}
	if lo < 1 || hi > n || lo > hi {
		t.Fatalf("bad bounds lo=%d hi=%d", lo, hi)
	}
	const trials = 2000
	covered := 0
	xs := make([]float64, n)
	for tr := 0; tr < trials; tr++ {
		for i := range xs {
			xs[i] = r.Float64()
		}
		sort.Float64s(xs)
		if xs[lo-1] <= q && q <= xs[hi-1] {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < conf-0.03 {
		t.Errorf("coverage %v below nominal %v", rate, conf)
	}
}

func TestQuantileOrderBoundsSmallN(t *testing.T) {
	// With 2 samples you cannot get 99.9% coverage of the median.
	lo, hi, ok := QuantileOrderBounds(2, 0.5, 0.999)
	if ok {
		t.Fatalf("expected failure, got [%d,%d]", lo, hi)
	}
	if _, _, ok := QuantileOrderBounds(0, 0.5, 0.9); ok {
		t.Error("n=0 should not be ok")
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(50, 100, 0.95)
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("interval [%v,%v] should contain 0.5", lo, hi)
	}
	if lo < 0.38 || hi > 0.62 {
		t.Errorf("interval [%v,%v] suspiciously wide", lo, hi)
	}
	lo, hi = WilsonInterval(0, 0, 0.95)
	if lo != 0 || hi != 1 {
		t.Error("empty-sample interval should be [0,1]")
	}
	lo, _ = WilsonInterval(0, 10, 0.95)
	if lo != 0 {
		t.Error("zero successes should give lo=0")
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.995, 2.575829},
		{0.841344746, 1.0},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); !almost(got, c.want, 1e-4) {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("extreme quantiles should be infinite")
	}
}

func TestLogBinomCoeff(t *testing.T) {
	if got := math.Exp(LogBinomCoeff(10, 3)); !almost(got, 120, 1e-6) {
		t.Errorf("C(10,3) = %v, want 120", got)
	}
	if !math.IsInf(LogBinomCoeff(5, 9), -1) {
		t.Error("out-of-range coefficient should be -Inf")
	}
}
