package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// contract is the part of BENCHMARK.json the comparison reads.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark contract: %w", err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// quartiles returns the first quartile, median and third quartile of
// values the way Python's statistics.quantiles(values, n=4) does
// (exclusive method), which is what the benchmark driver computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// worseBy returns by what share of base the value got worse (negative:
// it got better).
func worseBy(base, value float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - value) / base
	}
	return (value - base) / base
}

// compareSets prints, per workload and end-to-end metric, the median,
// quartiles and relative spread over the sets, and fails when the
// later half of the sets is worse than the earlier half by more than
// the metric's bound — with two sets, the second against the first.
// All sets must carry the same fingerprints.
func compareSets(sets [][]*result) error {
	if len(sets) < 2 {
		return fmt.Errorf("-compare needs -repeat 2 or more")
	}
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		return err
	}
	var broken []string
	fmt.Printf("\n== %d sets compared\n", len(sets))
	fmt.Printf("   %-18s %-24s %14s %14s %14s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "drift")
	for wi, first := range sets[0] {
		for _, set := range sets[1:] {
			if set[wi].fingerprint != first.fingerprint {
				broken = append(broken, fmt.Sprintf("%s: fingerprint %.16s differs from the first set's %.16s",
					first.workload, set[wi].fingerprint, first.fingerprint))
			}
		}
		for _, m := range c.EndToEnd {
			values := make([]float64, len(sets))
			for si, set := range sets {
				values[si] = set[wi].e2e[m.Name]
			}
			half := len(values) / 2
			early, late := median(values[:half]), median(values[len(values)-half:])
			q1, q2, q3 := quartiles(values)
			drift := worseBy(early, late, m.Better)
			fmt.Printf("   %-18s %-24s %14.5f %14.5f %14.5f %7.2f%% %+7.2f%%\n",
				first.workload, m.Name, q1, q2, q3, 100*ratio(q3-q1, q2), 100*drift)
			if drift > m.Bound {
				broken = append(broken, fmt.Sprintf("%s %s: later sets worse by %.1f%%, bound %.1f%%",
					first.workload, m.Name, 100*drift, 100*m.Bound))
			}
		}
	}
	for _, b := range broken {
		fmt.Printf("   BROKEN %s\n", b)
	}
	if len(broken) > 0 {
		return fmt.Errorf("%d comparison(s) outside their bound", len(broken))
	}
	return nil
}
