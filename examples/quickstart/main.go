// Quickstart: the paper's running example end to end.
//
// Domain S sends one second of traffic (100k packets/second) to domain
// D across transit domains L, X and N (Figure 1). X is congested by a
// bursty UDP flow and drops 10% of the traffic. Every domain deploys
// VPM with default tuning; afterwards a verifier — any domain on the
// path — estimates each transit domain's loss and delay from the
// receipts and checks every inter-domain link for consistency.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"vpm"
)

func main() {
	// 1. Workload: one origin-prefix path at 100k packets/second.
	traceCfg := vpm.TraceConfig{
		Seed:       1,
		DurationNS: int64(1e9),
		Paths:      []vpm.TracePathSpec{vpm.DefaultTracePath(100000)},
	}
	pkts, err := vpm.GenerateTrace(traceCfg)
	if err != nil {
		log.Fatal(err)
	}
	key := vpm.PathKey{Src: traceCfg.Paths[0].SrcPrefix, Dst: traceCfg.Paths[0].DstPrefix}
	fmt.Printf("generated %d packets on path %v\n", len(pkts), key)

	// 2. Topology: Figure 1, with congestion and loss inside X.
	path := vpm.Fig1Path(7)
	xi := path.DomainIndex("X")
	queue, err := vpm.NewCongestionQueue(vpm.BurstyUDPScenario(3))
	if err != nil {
		log.Fatal(err)
	}
	path.Domains[xi].Delay = queue
	loss, err := vpm.GilbertElliottLoss(0.10, 8, 5)
	if err != nil {
		log.Fatal(err)
	}
	path.Domains[xi].Loss = loss

	// 3. Deploy VPM on every HOP and run the traffic. Each HOP's
	// collector runs on the goroutine that feeds it; the simulator
	// replays the HOPs concurrently.
	dep, err := vpm.NewDeployment(path, traceCfg.Table(), vpm.DefaultDeployConfig())
	if err != nil {
		log.Fatal(err)
	}
	truth, err := path.Run(pkts, dep.Observers())
	if err != nil {
		log.Fatal(err)
	}
	dep.Finalize()

	// 4. Verify: estimate each domain's performance from receipts.
	v := dep.NewVerifier(key)
	fmt.Println("\ndomain   actual loss   estimated loss   estimated delay quantiles")
	for _, name := range []string{"L", "X", "N"} {
		t, _ := truth.DomainByName(name)
		rep, err := v.DomainReport(name, vpm.DefaultQuantiles, 0.95)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %10.3f%% %15.3f%%  ", name, t.LossRate()*100, rep.Loss.Rate()*100)
		for _, e := range rep.DelayEstimates {
			fmt.Printf(" p%.0f=%.2fms", e.Q*100, e.Point/1e6)
		}
		fmt.Println()
	}

	// 5. Consistency: every inter-domain link must check out.
	fmt.Println("\nlink verdicts:")
	for _, lv := range v.VerifyAllLinks() {
		fmt.Printf("  %v\n", lv)
	}
}
