// Continuous multi-interval operation: the Figure 1 deployment run as
// a stream of rotating epochs instead of a one-shot batch.
//
// vpm.RunContinuous is the epoch engine behind one call. It slices the
// generator's traffic at epoch boundaries, so only one interval's
// packets are in memory at once, and drives each slice across the
// path (network state persists between segments). Every HOP's
// collector sits behind an epoch clock that rotates when the HOP's
// local observation time crosses an interval boundary, sealing that
// epoch's receipts into a window holding one receipt-store segment per
// epoch. Each epoch is verified as soon as every HOP has sealed it,
// while the next one is simulated, and the window evicts verified
// epochs older than the retention, so memory stays bounded no matter
// how long the node runs. Rotation repackages the receipt stream
// without changing it: an aggregate straddling a boundary keeps
// counting and lands in the epoch where it closes. (vpm-node runs the
// same engine with signed epoch-tagged dissemination bundles between
// the HOPs and the window.)
package main

import (
	"fmt"
	"log"

	"vpm"
)

func main() {
	const (
		epochs  = 8
		ratePPS = 20000
		seed    = 7
	)
	ec := vpm.EpochConfig{
		IntervalNS: 100_000_000, // 100 ms epochs
		Retention:  2,
	}

	tc := vpm.TraceConfig{
		Seed:       seed,
		DurationNS: epochs * ec.IntervalNS,
		Paths:      []vpm.TracePathSpec{vpm.DefaultTracePath(ratePPS)},
	}
	gen, err := vpm.NewTraceGenerator(tc)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's Figure 1 path with a full deployment on every HOP.
	dep, err := vpm.NewDeployment(vpm.Fig1Path(seed+1), tc.Table(), vpm.DefaultDeployConfig())
	if err != nil {
		log.Fatal(err)
	}

	st, err := vpm.RunContinuous(dep, gen, ec, epochs, report)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done: window holds %d segments (%d evicted) after %d epochs\n",
		st.Segments, st.Evicted, epochs)
}

// report prints one verified epoch's delta.
func report(rep vpm.EpochReport, _ vpm.WindowStats) {
	fmt.Printf("epoch %d: matched=%d violations=%d", rep.Epoch, rep.MatchedSamples(), rep.Violations())
	for _, k := range rep.Keys {
		for _, dom := range k.Domains {
			if dom.Name == "X" && len(dom.DelayEstimates) > 0 {
				fmt.Printf("  X: loss=%.2f%% p50=%.2fms",
					dom.Loss.Rate()*100, dom.DelayEstimates[0].Point/1e6)
			}
		}
	}
	fmt.Println()
}
