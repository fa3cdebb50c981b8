package stats

import (
	"math"
	"testing"
)

// quantileOrderBoundsRef is the search QuantileOrderBounds replaced,
// kept as the oracle: the same widening order, with the coverage
// recomputed from two CDF sums at every step — O(n·width) terms. The
// terms come from a PMF row computed once per (n, q) through cdfOfRow,
// which is what keeps the full grid below affordable; the arithmetic
// on them is BinomCDF's, bit for bit (TestCDFOfRowIsBinomCDF).
func quantileOrderBoundsRef(n int, q, conf float64) (lo, hi int, ok bool) {
	if n <= 0 {
		return 0, 0, false
	}
	pmf := make([]float64, n+1)
	for i := range pmf {
		pmf[i] = BinomPMF(n, i, q)
	}
	center := int(math.Round(q * float64(n)))
	if center < 1 {
		center = 1
	}
	if center > n {
		center = n
	}
	lo, hi = center, center
	cover := func(lo, hi int) float64 {
		return cdfOfRow(pmf, hi-1, q) - cdfOfRow(pmf, lo-1, q)
	}
	for cover(lo, hi) < conf {
		grew := false
		if lo > 1 {
			lo--
			grew = true
		}
		if hi < n {
			hi++
			grew = true
		}
		if !grew {
			return 1, n, false
		}
	}
	return lo, hi, true
}

// cdfOfRow is BinomCDF(n, k, p) over pmf[i] = BinomPMF(n, i, p): the
// same tail choice, summation order and clamps.
func cdfOfRow(pmf []float64, k int, p float64) float64 {
	n := len(pmf) - 1
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	if float64(k) <= float64(n)*p {
		s := 0.0
		for i := 0; i <= k; i++ {
			s += pmf[i]
		}
		return math.Min(s, 1)
	}
	s := 0.0
	for i := k + 1; i <= n; i++ {
		s += pmf[i]
	}
	return math.Max(1-s, 0)
}

func TestCDFOfRowIsBinomCDF(t *testing.T) {
	for _, n := range []int{1, 2, 37, 600} {
		for _, q := range []float64{0, 0.01, 0.5, 0.999, 1} {
			pmf := make([]float64, n+1)
			for i := range pmf {
				pmf[i] = BinomPMF(n, i, q)
			}
			for k := -1; k <= n+1; k++ {
				if got, want := cdfOfRow(pmf, k, q), BinomCDF(n, k, q); got != want {
					t.Fatalf("n=%d q=%v k=%d: %v != BinomCDF %v", n, q, k, got, want)
				}
			}
		}
	}
}

// TestQuantileOrderBoundsMatchesReference pins the O(width) search to
// the quadratic one it replaced: identical (lo, hi, ok) on the whole
// grid, so every domain report built on the bounds is unchanged.
func TestQuantileOrderBoundsMatchesReference(t *testing.T) {
	for n := 1; n <= 600; n++ {
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
			for _, conf := range []float64{0.5, 0.95, 0.999} {
				lo, hi, ok := QuantileOrderBounds(n, q, conf)
				rlo, rhi, rok := quantileOrderBoundsRef(n, q, conf)
				if lo != rlo || hi != rhi || ok != rok {
					t.Fatalf("n=%d q=%v conf=%v: got (%d, %d, %v), reference (%d, %d, %v)",
						n, q, conf, lo, hi, ok, rlo, rhi, rok)
				}
			}
		}
	}
}

func TestQuantileOrderBoundsEdges(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		q      float64
		conf   float64
		lo, hi int
		ok     bool
	}{
		// One sample: the window [1, 1] covers nothing and cannot widen.
		{"n=1", 1, 0.5, 0.5, 1, 1, false},
		// q·n rounds to 0: the centre clamps to the first order statistic
		// and the window can only widen upwards.
		{"centre clamps to 1", 40, 0.01, 0.3, 1, 3, true},
		// q·n rounds to n: the centre clamps to the last one and the
		// window can only widen downwards.
		{"centre clamps to n", 40, 0.999, 0.03, 39, 40, true},
		// P[X = 0] lies outside every window (lo >= 1), so at small q·n
		// even the full range falls short of a modest confidence.
		{"mass below the first order statistic", 40, 0.01, 0.5, 1, 40, false},
		{"unreachable confidence", 5, 0.5, 0.999, 1, 5, false},
		{"q=0", 10, 0, 0.5, 1, 10, false},
		{"q=1", 10, 1, 0.5, 1, 10, false},
	}
	for _, c := range cases {
		lo, hi, ok := QuantileOrderBounds(c.n, c.q, c.conf)
		if lo != c.lo || hi != c.hi || ok != c.ok {
			t.Errorf("%s: QuantileOrderBounds(%d, %v, %v) = (%d, %d, %v), want (%d, %d, %v)",
				c.name, c.n, c.q, c.conf, lo, hi, ok, c.lo, c.hi, c.ok)
		}
		if rlo, rhi, rok := quantileOrderBoundsRef(c.n, c.q, c.conf); lo != rlo || hi != rhi || ok != rok {
			t.Errorf("%s: differs from the reference (%d, %d, %v)", c.name, rlo, rhi, rok)
		}
	}
}

var boundsSink int

func BenchmarkQuantileOrderBounds(b *testing.B) {
	for b.Loop() {
		lo, hi, _ := QuantileOrderBounds(1000, 0.9, 0.95)
		boundsSink += lo + hi
	}
}

// BinomCDF returns P[X <= k] for X ~ Binomial(n, p), by direct
// summation of the PMF. n in this codebase is at most a few tens of
// thousands (sample counts), for which this is fast and accurate.
func BinomCDF(n, k int, p float64) float64 {
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	// Sum the smaller tail for numerical behaviour.
	if float64(k) <= float64(n)*p {
		s := 0.0
		for i := 0; i <= k; i++ {
			s += BinomPMF(n, i, p)
		}
		if s > 1 {
			s = 1
		}
		return s
	}
	s := 0.0
	for i := k + 1; i <= n; i++ {
		s += BinomPMF(n, i, p)
	}
	c := 1 - s
	if c < 0 {
		c = 0
	}
	return c
}
