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
	"math"
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
	lo, hi, ok := stats.QuantileOrderBounds(len(sorted), q, confidence)
	return ofSorted(sorted, q, lo, hi, ok), nil
}

// Quantiles estimates several quantiles from one sample set.
func Quantiles(delaysNS []float64, qs []float64, confidence float64) ([]Estimate, error) {
	return new(BoundsMemo).QuantilesInPlace(slices.Clone(delaysNS), qs, confidence)
}

// QuantilesInPlace is Quantiles over a sample set the caller no longer
// needs in its order: it sorts delaysNS in place, once for all qs,
// instead of sorting a copy per quantile, and takes each estimate's
// order-statistic bounds from the memo.
func (m *BoundsMemo) QuantilesInPlace(delaysNS []float64, qs []float64, confidence float64) ([]Estimate, error) {
	out := make([]Estimate, 0, len(qs))
	for i, q := range qs {
		if err := validate(len(delaysNS), q, confidence); err != nil {
			return nil, err
		}
		if i == 0 {
			sort.Float64s(delaysNS)
		}
		lo, hi, ok := m.OrderBounds(len(delaysNS), q, confidence)
		out = append(out, ofSorted(delaysNS, q, lo, hi, ok))
	}
	return out, nil
}

// BoundsMemo remembers stats.QuantileOrderBounds per (n, quantile,
// confidence). A verifier estimates the same few quantiles at one
// confidence for sample counts that recur epoch after epoch, and each
// direct call sums a binomial tail term by term. The memo is a fixed
// direct-mapped table: the first memoPairs (quantile, confidence)
// pairs it is asked for get a lane each, and the slot of (n, lane) is
// n·memoPairs + lane modulo the table's size, so every lane holds
// memoSlots/memoPairs consecutive sample counts at once and a later n
// overwrites the one that shared its slot. It never grows and is
// never shared: one belongs to each goroutine that estimates, and the
// zero value is empty. A pair beyond the lanes, or an n above 65 535,
// is computed directly.
type BoundsMemo struct {
	pairs  [memoPairs]struct{ q, conf float64 }
	npairs int
	slots  [memoSlots]boundsSlot
}

const (
	memoPairs = 4
	memoSlots = 512
)

// boundsSlot is one memoised result: n == 0 is an empty slot, and
// lo == 0 stands for ok == false, whose bounds are always (1, n).
type boundsSlot struct{ n, lo, hi uint16 }

// OrderBounds returns stats.QuantileOrderBounds(n, q, conf).
func (m *BoundsMemo) OrderBounds(n int, q, conf float64) (lo, hi int, ok bool) {
	if n <= 0 || n > math.MaxUint16 {
		return stats.QuantileOrderBounds(n, q, conf)
	}
	lane := 0
	for lane < m.npairs && (m.pairs[lane].q != q || m.pairs[lane].conf != conf) {
		lane++
	}
	if lane == m.npairs {
		if lane == memoPairs {
			return stats.QuantileOrderBounds(n, q, conf)
		}
		m.pairs[lane].q, m.pairs[lane].conf = q, conf
		m.npairs++
	}
	s := &m.slots[(n*memoPairs+lane)%memoSlots]
	if int(s.n) != n {
		lo, hi, ok := stats.QuantileOrderBounds(n, q, conf)
		*s = boundsSlot{n: uint16(n), hi: uint16(hi)}
		if ok {
			s.lo = uint16(lo)
		}
		return lo, hi, ok
	}
	if s.lo == 0 {
		return 1, n, false
	}
	return int(s.lo), int(s.hi), true
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

// ofSorted estimates the q-quantile from ascending delays, given the
// order-statistic bounds stats.QuantileOrderBounds returns for them.
func ofSorted(sorted []float64, q float64, lo, hi int, ok bool) Estimate {
	n := len(sorted)
	est := Estimate{
		Q:     q,
		Point: stats.QuantileSorted(sorted, q),
		N:     n,
	}
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
