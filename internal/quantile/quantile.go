// Package quantile estimates delay quantiles of all traffic through a
// domain from the delays of its sampled packets, with distribution-free
// confidence bounds — the role the paper delegates to Sommers et al.,
// "Accurate and Efficient SLA Compliance Monitoring" (reference [20]).
//
// Given n sampled delays, the true q-quantile of the traffic lies
// between two order statistics of the sample with a confidence given
// by the Binomial(n, q) distribution; no assumption about the delay
// distribution is required. The package also defines the "delay
// accuracy" metric of Figure 2: how far the receipt-based estimate of
// a domain's delay performance can be from the truth.
package quantile

import (
	"fmt"
	"slices"
	"sort"

	"vpm/internal/stats"
)

// Estimate is a point estimate of one delay quantile with its
// distribution-free confidence interval, in nanoseconds.
type Estimate struct {
	// Q is the quantile (e.g. 0.9 for the 90th percentile).
	Q float64
	// Point is the sample quantile.
	Point float64
	// Lo and Hi bound the true quantile at the requested confidence.
	Lo, Hi float64
	// N is the number of samples used.
	N int
	// Exact is true when the order-statistic bounds met the requested
	// confidence; false means n was too small and [Lo, Hi] fell back
	// to the sample extremes.
	Exact bool
}

// String renders the estimate in milliseconds for logs.
func (e Estimate) String() string {
	return fmt.Sprintf("q%.3g=%.3fms [%.3f,%.3f] n=%d", e.Q, e.Point/1e6, e.Lo/1e6, e.Hi/1e6, e.N)
}

// Quantile estimates the q-quantile of the underlying traffic delay
// from sampled delays (nanoseconds) at the given confidence. It
// returns an error when no samples are available.
func Quantile(delaysNS []float64, q, confidence float64) (Estimate, error) {
	if err := validate(len(delaysNS), q, confidence); err != nil {
		return Estimate{}, err
	}
	sorted := slices.Clone(delaysNS)
	sort.Float64s(sorted)
	return ofSorted(sorted, q, confidence), nil
}

// Quantiles estimates several quantiles from one sample set.
func Quantiles(delaysNS []float64, qs []float64, confidence float64) ([]Estimate, error) {
	return QuantilesInPlace(slices.Clone(delaysNS), qs, confidence)
}

// QuantilesInPlace is Quantiles over a sample set the caller no longer
// needs in its order: it sorts delaysNS in place, once for all qs,
// instead of sorting a copy per quantile.
func QuantilesInPlace(delaysNS []float64, qs []float64, confidence float64) ([]Estimate, error) {
	out := make([]Estimate, 0, len(qs))
	for i, q := range qs {
		if err := validate(len(delaysNS), q, confidence); err != nil {
			return nil, err
		}
		if i == 0 {
			sort.Float64s(delaysNS)
		}
		out = append(out, ofSorted(delaysNS, q, confidence))
	}
	return out, nil
}

// validate checks one estimate's inputs.
func validate(n int, q, confidence float64) error {
	if n == 0 {
		return fmt.Errorf("quantile: no samples")
	}
	if q < 0 || q > 1 {
		return fmt.Errorf("quantile: q %v outside [0,1]", q)
	}
	if confidence <= 0 || confidence >= 1 {
		return fmt.Errorf("quantile: confidence %v outside (0,1)", confidence)
	}
	return nil
}

// ofSorted estimates the q-quantile from ascending delays.
func ofSorted(sorted []float64, q, confidence float64) Estimate {
	n := len(sorted)
	est := Estimate{
		Q:     q,
		Point: stats.QuantileSorted(sorted, q),
		N:     n,
	}
	lo, hi, ok := stats.QuantileOrderBounds(n, q, confidence)
	est.Exact = ok
	if ok {
		est.Lo, est.Hi = sorted[lo-1], sorted[hi-1]
	} else {
		est.Lo, est.Hi = sorted[0], sorted[n-1]
	}
	return est
}

// DefaultQuantiles are the quantiles the experiments report: median,
// the SLA-typical 90th, and the tail 99th.
var DefaultQuantiles = []float64{0.50, 0.90, 0.99}

// AccuracyNS is the Figure 2 metric: the worst-case absolute error,
// across the given quantiles, between the estimates computed from
// sampled delays and the ground-truth delays of all packets. Both
// inputs are in nanoseconds; the result is in nanoseconds.
//
// This is the quantity the paper plots as "Delay Accuracy [msec]": a
// verifier working from domain X's receipts estimates X's delay
// quantiles this close to X's actual performance.
func AccuracyNS(sampledNS, truthNS []float64, qs []float64) (float64, error) {
	if len(truthNS) == 0 {
		return 0, fmt.Errorf("quantile: no ground-truth delays")
	}
	if len(sampledNS) == 0 {
		return 0, fmt.Errorf("quantile: no sampled delays")
	}
	if len(qs) == 0 {
		qs = DefaultQuantiles
	}
	sortedTruth := make([]float64, len(truthNS))
	copy(sortedTruth, truthNS)
	sort.Float64s(sortedTruth)
	sortedSample := make([]float64, len(sampledNS))
	copy(sortedSample, sampledNS)
	sort.Float64s(sortedSample)
	worst := 0.0
	for _, q := range qs {
		est := stats.QuantileSorted(sortedSample, q)
		tru := stats.QuantileSorted(sortedTruth, q)
		if d := est - tru; d > worst {
			worst = d
		} else if -d > worst {
			worst = -d
		}
	}
	return worst, nil
}
