package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 if len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7 estimator, the R and
// NumPy default). It copies and sorts xs; use QuantileSorted when the
// input is already sorted. It panics on an empty slice.
func Quantile(xs []float64, q float64) float64 {
	c := make([]float64, len(xs))
	copy(c, xs)
	sort.Float64s(c)
	return QuantileSorted(c, q)
}

// QuantileSorted is Quantile for an already ascending-sorted slice.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N                  int
	Mean, StdDev       float64
	Min, Max           float64
	P50, P90, P99      float64
	P999               float64 // 99.9th percentile
	Sum                float64
	SampleQuantileBase []float64 // sorted copy, retained for further quantile queries
}

// Summarize computes a Summary of xs. For an empty input it returns the
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	c := make([]float64, len(xs))
	copy(c, xs)
	sort.Float64s(c)
	s := Summary{
		N:                  len(c),
		Min:                c[0],
		Max:                c[len(c)-1],
		P50:                QuantileSorted(c, 0.50),
		P90:                QuantileSorted(c, 0.90),
		P99:                QuantileSorted(c, 0.99),
		P999:               QuantileSorted(c, 0.999),
		SampleQuantileBase: c,
	}
	for _, x := range c {
		s.Sum += x
	}
	s.Mean = s.Sum / float64(s.N)
	s.StdDev = StdDev(c)
	return s
}

// String renders the summary on one line, suitable for experiment logs.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g",
		s.N, s.Mean, s.StdDev, s.Min, s.P50, s.P90, s.P99, s.Max)
}
