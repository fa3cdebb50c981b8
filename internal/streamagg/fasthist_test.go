package streamagg

import (
	"math"
	"sort"
	"testing"

	"vpm/internal/stats"
)

// TestFastHistQuantileBound: for every quantile and distribution
// tried, the exact k-th smallest value lies inside the returned bucket
// bounds and the bounds obey the documented relative-error guarantee.
func TestFastHistQuantileBound(t *testing.T) {
	r := stats.NewRNG(11)
	for trial := 0; trial < 20; trial++ {
		var h FastHist
		n := 1000 + int(r.Uint64()%5000)
		vals := make([]int64, n)
		for i := range vals {
			// Log-uniform values spanning nine decades, plus small ints.
			switch trial % 3 {
			case 0:
				vals[i] = int64(r.Uint64() % 1_000_000_000)
			case 1:
				vals[i] = int64(r.Uint64() % 100)
			default:
				vals[i] = int64(1) << (r.Uint64() % 40)
			}
			h.Observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 1} {
			est, lo, hi, err := h.Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			k := int(math.Ceil(q * float64(n)))
			if k < 1 {
				k = 1
			}
			exact := vals[k-1]
			if exact < lo || exact > hi {
				t.Fatalf("trial %d q=%v: exact %d outside bucket [%d,%d]", trial, q, exact, lo, hi)
			}
			if lo > 0 && float64(hi-lo) > float64(lo)*RelErrBound {
				t.Fatalf("bucket [%d,%d] wider than relative bound", lo, hi)
			}
			if est < float64(lo) || est > float64(hi) {
				t.Fatalf("estimate %v outside own bounds [%d,%d]", est, lo, hi)
			}
		}
	}
}

func TestFastHistMergeAndReset(t *testing.T) {
	var a, b, all FastHist
	r := stats.NewRNG(13)
	for i := 0; i < 10_000; i++ {
		v := int64(r.Uint64() % 1_000_000)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	a.Merge(&b)
	if a.Count() != all.Count() || a.Sum() != all.Sum() {
		t.Fatalf("merge: count/sum %d/%d, want %d/%d", a.Count(), a.Sum(), all.Count(), all.Sum())
	}
	ea, _, _, _ := a.Quantile(0.9)
	eall, _, _, _ := all.Quantile(0.9)
	if ea != eall {
		t.Fatalf("merged quantile %v != direct %v", ea, eall)
	}
	a.Reset()
	if a.Count() != 0 || a.Sum() != 0 {
		t.Fatal("reset did not clear")
	}
	if _, _, _, err := a.Quantile(0.5); err == nil {
		t.Fatal("quantile of empty histogram did not error")
	}
}
