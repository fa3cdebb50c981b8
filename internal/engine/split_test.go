package engine_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"vpm/internal/core"
	"vpm/internal/engine"
	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/receipt"
	"vpm/internal/seqdetect"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// TestVerifySplitIsScheduleFree: the rolling verifier builds each sealed
// epoch's leaf as key partitions on up to GOMAXPROCS workers, checks an
// epoch's keys on the same workers, and each worker creates and feeds
// the SPRT arm's detectors of the keys it checks, so every report — its
// sequential verdicts, whose order within an epoch is the order a
// serial pass over the keys would have created their detectors in,
// included — is the same bytes at every width and in every run, and
// every sealed (HOP, epoch) is indexed exactly once at every width. The
// world is a Clos mesh of 97 keys (a multiple of no width tried) with a
// lossy shared link and a HOP that suppresses a fifth of what it sees,
// under the arm: many detectors cross in one epoch, on keys that
// different workers check, and at every width above one some epoch's
// verdicts include two from detectors that different workers created
// in that very epoch.
func TestVerifySplitIsScheduleFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want [][]byte
	for _, procs := range []int{1, 2, 3, 4} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 3; run++ {
			got, seq, split := runSplitWorld(t)
			if procs > 1 && split == 0 {
				t.Fatalf("GOMAXPROCS %d run %d: no epoch emits verdicts of detectors two workers created in it", procs, run)
			}
			if want == nil {
				if seq < 10 {
					t.Fatalf("%d sequential verdicts: the world was meant to make several cross", seq)
				}
				want = got
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("GOMAXPROCS %d run %d: %d reports, want %d", procs, run, len(got), len(want))
			}
			for e := range want {
				if !bytes.Equal(got[e], want[e]) {
					t.Fatalf("GOMAXPROCS %d run %d: epoch %d's report differs from the one at GOMAXPROCS 1", procs, run, e)
				}
			}
		}
	}
}

// runSplitWorld builds the world afresh, runs it through the engine and
// returns every report's canonical encoding, the number of sequential
// verdicts and the number of epochs whose verdicts include two from
// detectors created in that epoch by different workers.
func runSplitWorld(t *testing.T) ([][]byte, int, int) {
	t.Helper()
	keys := netsim.WideKeys(97)
	tc := trace.Config{Seed: 41, DurationNS: testEpochs * testIntervalNS}
	for _, k := range keys {
		tc.Paths = append(tc.Paths, trace.PathSpec{SrcPrefix: k.Src, DstPrefix: k.Dst,
			RatePPS: 1500, ActiveFlows: 4, MeanFlowPkts: 50, UDPFraction: 0.2})
	}
	gen, err := trace.NewGenerator(tc)
	if err != nil {
		t.Fatal(err)
	}
	topo := netsim.ClosTopology(5003, 4, 2, keys)
	lossy := busiestLink(topo)
	if topo.Links[lossy].Loss, err = lossmodel.FromTargetLoss(0.3, 8, stats.NewRNG(99)); err != nil {
		t.Fatal(err)
	}
	liar := suppressingHOP(topo, lossy)
	dc := core.DefaultDeployConfig()
	// A fifth of the packets sampled: enough trials per key and epoch
	// for many detectors to cross in the same epoch.
	dc.MarkerRate, dc.Default.SampleRate, dc.Default.AggRate = 0.01, 0.2, 0.005
	dep, err := core.NewTopoDeployment(topo, tc.Table(), dc)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := engine.NewSim(dep.Topo, dep.Table, nil)
	if err != nil {
		t.Fatal(err)
	}
	vc := dep.VerifierConfig()
	sc := seqdetect.DefaultConfig()
	vc.Sequential = &sc
	ver, err := engine.NewVerify(engine.Store{HOPs: dep.HOPs(), Retention: 2},
		engine.Checks{Config: vc, KeyLayouts: dep.KeyLayouts()})
	if err != nil {
		t.Fatal(err)
	}
	var reports [][]byte
	seq, widest, split := 0, 0, 0
	var last core.WindowStats
	ver.OnEpoch = func(rep core.EpochReport, st core.WindowStats) {
		last = st
		enc, err := core.EncodeEpochReport(rep)
		if err != nil {
			t.Error(err)
		}
		reports = append(reports, enc)
		seq += len(rep.Seq)
		// Key i of the epoch's n is checked by worker i mod w.
		at := make(map[string]int)
		for _, kr := range rep.Keys {
			if kr.Route == 0 {
				at[kr.Key.String()] = len(at)
			}
		}
		n, w := len(at), min(runtime.GOMAXPROCS(0), len(at))
		widest = max(widest, n)
		workers := make(map[int]bool)
		for _, v := range rep.Seq {
			// One trajectory point: the detector was born in this epoch.
			if len(v.Trajectory) == 1 {
				workers[at[v.Key]%w] = true
			}
		}
		if len(workers) > 1 {
			split++
		}
	}
	col, err := engine.NewCollect(dep, dep.HOPs(), testIntervalNS, 0, ver.Window.Sink())
	if err != nil {
		t.Fatal(err)
	}
	col.Observers[liar] = netsim.Wear(liar, &netsim.Suppressor{Fraction: 0.2, Seed: 7}, col.Observers[liar])
	if err := col.Run(context.Background(), engine.EpochSource(gen, testIntervalNS, testEpochs, nil), sim, ver); err != nil {
		t.Fatal(err)
	}
	if widest < 64 {
		t.Fatalf("at most %d keys per epoch: too few to split", widest)
	}
	if sealed := uint64(len(dep.HOPs()) * len(reports)); last.IndexBuilds != sealed {
		t.Fatalf("%d (HOP, epoch) indexings for %d sealed", last.IndexBuilds, sealed)
	}
	return reports, seq, split
}

// suppressingHOP picks the liar: the ingress HOP of the last link of the
// first route that avoids the lossy link, so the two blame sites never
// share a HOP.
func suppressingHOP(topo *netsim.Topology, lossy int) receipt.HOPID {
	for ri := range topo.Routes {
		links := topo.Routes[ri].Links
		if links[0] != lossy && links[len(links)-1] != lossy {
			_, liar := topo.LinkHOPs(links[len(links)-1])
			return liar
		}
	}
	panic("no route avoids the lossy link")
}
