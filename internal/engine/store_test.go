package engine_test

import (
	"bytes"
	"context"
	"testing"

	"vpm/internal/core"
	"vpm/internal/engine"
	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/segstore"
	"vpm/internal/seqdetect"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// The store keeps verdicts no larger than the evidence they judge: on a
// Clos mesh with a lossy shared link — violations, blames and the
// sequential arm's verdicts in the reports — the report blocks take no
// more bytes than the receipt segments, and every stored report renders
// to the canonical JSON of the report the verifier delivered.
func TestStoredReportsAreEvidenceSized(t *testing.T) {
	keys := netsim.WideKeys(64)
	tc := trace.Config{Seed: 33, DurationNS: testEpochs * testIntervalNS}
	for _, k := range keys {
		tc.Paths = append(tc.Paths, trace.PathSpec{SrcPrefix: k.Src, DstPrefix: k.Dst,
			RatePPS: 1500, ActiveFlows: 4, MeanFlowPkts: 50, UDPFraction: 0.2})
	}
	gen, err := trace.NewGenerator(tc)
	if err != nil {
		t.Fatal(err)
	}
	topo := netsim.ClosTopology(5001, 4, 2, keys)
	lossy := busiestLink(topo)
	if topo.Links[lossy].Loss, err = lossmodel.FromTargetLoss(0.3, 8, stats.NewRNG(98)); err != nil {
		t.Fatal(err)
	}
	dc := core.DefaultDeployConfig()
	dc.MarkerRate, dc.Default.AggRate = 0.01, 0.005
	dep, err := core.NewTopoDeployment(topo, tc.Table(), dc)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := engine.NewSim(dep.Topo, dep.Table, nil)
	if err != nil {
		t.Fatal(err)
	}
	disk, _, err := segstore.Open("", segstore.Options{FS: segstore.NewMemFS(), AutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	vc := dep.VerifierConfig()
	sc := seqdetect.DefaultConfig()
	vc.Sequential = &sc
	ver, err := engine.NewVerify(
		engine.Store{HOPs: dep.HOPs(), Retention: 2, Backend: segstore.Backend{Store: disk}},
		engine.Checks{Config: vc, KeyLayouts: dep.KeyLayouts()})
	if err != nil {
		t.Fatal(err)
	}
	var reports [][]byte
	violations := 0
	ver.OnEpoch = func(rep core.EpochReport, _ core.WindowStats) {
		enc, err := core.EncodeEpochReport(rep)
		if err != nil {
			t.Error(err)
		}
		reports = append(reports, enc)
		violations += rep.Violations()
	}
	col, err := engine.NewCollect(dep, dep.HOPs(), testIntervalNS, 0, ver.Window.Sink())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Run(context.Background(), engine.EpochSource(gen, testIntervalNS, testEpochs, nil), sim, ver); err != nil {
		t.Fatal(err)
	}
	if violations == 0 || len(reports) != int(col.Terminal)+1 {
		t.Fatalf("%d reports for terminal epoch %d, %d violations: the lossy link was meant to be judged", len(reports), col.Terminal, violations)
	}
	for e, want := range reports {
		if got, err := disk.Report(uint64(e)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("stored report of epoch %d does not render to the delivered one (err %v)", e, err)
		}
	}
	st := disk.StoreStats()
	canon := 0
	for _, r := range reports {
		canon += len(r)
	}
	t.Logf("%d epochs: receipts %d B, report blocks %d B, canonical JSON %d B", st.SealedEpochs, st.Bytes, st.ReportBytes, canon)
	if st.ReportBytes > st.Bytes {
		t.Fatalf("report blocks take %d B, the receipts they judge %d B", st.ReportBytes, st.Bytes)
	}
}

// busiestLink returns the link crossed by the most distinct keys, the
// first such on ties.
func busiestLink(t *netsim.Topology) int {
	keys := make([]map[packet.PathKey]bool, len(t.Links))
	for ri := range t.Routes {
		for _, li := range t.Routes[ri].Links {
			if keys[li] == nil {
				keys[li] = make(map[packet.PathKey]bool)
			}
			keys[li][t.Routes[ri].Key] = true
		}
	}
	best := 0
	for li := range keys {
		if len(keys[li]) > len(keys[best]) {
			best = li
		}
	}
	return best
}
