// Package streamagg holds FastHist, a fixed-size log-bucketed histogram
// with a proven relative-error bound on its quantile estimates: O(1)
// update, constant memory, mergeable, reusable after Reset — the
// VictoriaMetrics streamaggr quantile-state idiom.
package streamagg

import (
	"fmt"
	"math"
	"math/bits"
)

// FastHist bucket layout: values in [0, 64) get exact unit buckets;
// larger values are bucketed by octave (position of the leading bit)
// subdivided linearly into 64 sub-buckets by the next six bits. Every
// bucket's width is at most lo/64, so any representative inside the
// bucket is within a 1/64 relative error of every value it absorbed —
// the bound TestFastHistQuantileBound proves.
const (
	histLinear  = 64 // exact buckets for values in [0, histLinear)
	histSubBits = 6
	histSub     = 1 << histSubBits
	histOctaves = 63 - histSubBits // leading-bit positions 6..62
	histBuckets = histLinear + histOctaves*histSub

	// RelErrBound is the guaranteed relative error of Quantile's
	// bucket bounds: the true value v of any absorbed sample satisfies
	// lo ≤ v ≤ hi with hi-lo ≤ lo/64.
	RelErrBound = 1.0 / 64
)

// FastHist is a fixed-size log-bucketed histogram of non-negative
// int64 values (nanoseconds in this codebase) with bounded relative
// error, in the spirit of the VictoriaMetrics streamaggr quantile
// state: O(1) update, constant memory, mergeable, reusable after
// Reset. Not safe for concurrent use.
type FastHist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    int64
}

// histIdx maps a value to its bucket.
func histIdx(v int64) int {
	if v < histLinear {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	sub := int((uint64(v) >> uint(e-histSubBits)) & (histSub - 1))
	return histLinear + (e-histSubBits)*histSub + sub
}

// histBounds returns the value range [lo, hi] a bucket covers.
func histBounds(idx int) (lo, hi int64) {
	if idx < histLinear {
		return int64(idx), int64(idx)
	}
	i := idx - histLinear
	e := uint(histSubBits + i/histSub)
	sub := int64(i % histSub)
	lo = int64(1)<<e + sub<<(e-histSubBits)
	return lo, lo + int64(1)<<(e-histSubBits) - 1
}

// Observe folds one value into the histogram. Negative values clamp to
// zero (timestamps are non-decreasing, so negative interarrivals only
// arise from clock artifacts).
//
//vpm:hotpath
func (h *FastHist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIdx(v)]++
	h.n++
	h.sum += v
}

// Count returns the number of values observed.
func (h *FastHist) Count() uint64 { return h.n }

// Sum returns the sum of observed values.
func (h *FastHist) Sum() int64 { return h.sum }

// Reset clears the histogram for reuse.
func (h *FastHist) Reset() {
	h.counts = [histBuckets]uint32{}
	h.n = 0
	h.sum = 0
}

// Merge folds other into h.
func (h *FastHist) Merge(other *FastHist) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.n += other.n
	h.sum += other.sum
}

// Quantile returns the estimated q-quantile (bucket midpoint) together
// with the bucket bounds [lo, hi] that provably bracket the exact
// k-th smallest observed value, k = ceil(q·n) clamped to [1, n]. The
// guarantee is deterministic: hi-lo ≤ lo/64 by construction.
func (h *FastHist) Quantile(q float64) (est float64, lo, hi int64, err error) {
	if h.n == 0 {
		return 0, 0, 0, fmt.Errorf("streamagg: quantile of empty histogram")
	}
	if q < 0 || q > 1 {
		return 0, 0, 0, fmt.Errorf("streamagg: q %v outside [0,1]", q)
	}
	k := uint64(math.Ceil(q * float64(h.n)))
	if k < 1 {
		k = 1
	}
	if k > h.n {
		k = h.n
	}
	var cum uint64
	for i := range h.counts {
		cum += uint64(h.counts[i])
		if cum >= k {
			lo, hi = histBounds(i)
			return float64(lo+hi) / 2, lo, hi, nil
		}
	}
	// Unreachable: cum reaches n ≥ k.
	lo, hi = histBounds(histBuckets - 1)
	return float64(lo+hi) / 2, lo, hi, nil
}
