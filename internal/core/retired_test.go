package core

import (
	"bytes"
	"runtime"
	"testing"

	"vpm/internal/netsim"
	"vpm/internal/receipt"
	"vpm/internal/trace"
)

// TestRetiredKnobsAreInert: DeployConfig.Shards and
// VerifierConfig.Workers are still declared (bench/ assigns them) but
// nothing reads them — whatever they hold, a deployment allocates the
// same, drains the same receipts and verifies to the same report bytes.
func TestRetiredKnobsAreInert(t *testing.T) {
	tc := equivTraceConfig(3, 60_000, int64(2e8))
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	const intervalNS = int64(5e7)

	deploy := func(shards int) *Deployment {
		dc := DefaultDeployConfig()
		dc.Shards = shards
		dep, err := NewDeployment(netsim.Fig1Path(77), tc.Table(), dc)
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}
	// run replays the trace into a deployment built at the given shard
	// count, sealing epochs into a window, and returns every HOP's
	// drained receipts as wire bytes plus the per-epoch report bytes a
	// rolling verifier with the given worker count produces.
	run := func(shards, workers int) (receipts, reports []byte) {
		dep := deploy(shards)
		hops := dep.HOPs()
		win, err := NewWindowedStore(hops, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Each HOP seals on its own replay goroutine, into its own slot.
		drained := map[receipt.HOPID]*[]byte{}
		for _, h := range hops {
			drained[h] = new([]byte)
		}
		sink := win.Sink()
		driver, err := NewEpochDriver(dep, intervalNS, func(hop receipt.HOPID, e EpochID, s []receipt.SampleReceipt, a []receipt.AggReceipt) {
			*drained[hop] = append(*drained[hop], encodeReceipts(s, a)...)
			sink(hop, e, s, a)
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dep.Topo.Run(dep.Table, pkts, driver.Observers()); err != nil {
			t.Fatal(err)
		}
		driver.Close()
		win.FinishStream()
		for _, h := range hops {
			receipts = append(receipts, *drained[h]...)
		}

		cfg := dep.VerifierConfig()
		cfg.Workers = workers
		reps, err := NewRollingVerifier(dep.Layout(), cfg, win, nil, 0).VerifyReady()
		if err != nil {
			t.Fatal(err)
		}
		for i := range reps {
			b, err := EncodeEpochReport(reps[i])
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, b...)
		}
		return receipts, reports
	}

	wantReceipts, wantReports := run(0, 0)
	if len(wantReceipts) == 0 || len(wantReports) == 0 {
		t.Fatal("the baseline run drained or verified nothing")
	}
	for _, n := range []int{1, 8} {
		if got, _ := run(n, 0); !bytes.Equal(got, wantReceipts) {
			t.Errorf("Shards %d: drained receipts differ from Shards 0", n)
		}
		if _, got := run(0, n); !bytes.Equal(got, wantReports) {
			t.Errorf("Workers %d: report bytes differ from Workers 0", n)
		}
	}

	// Eight shards used to mean eight sub-batch scratches per HOP.
	built := func(shards int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		dep := deploy(shards)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(dep)
		return after.TotalAlloc - before.TotalAlloc
	}
	built(1) // warm up whatever the first build initialises lazily
	if one, eight := built(1), built(8); one != eight {
		t.Errorf("building a deployment allocates %d B at Shards 1 and %d B at Shards 8", one, eight)
	}
}
