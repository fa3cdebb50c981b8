package vpm_test

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"vpm"
)

// TestPublicAPIEndToEnd walks the documented quickstart path through
// the facade only: generate traffic, build the Figure 1 topology,
// deploy, run, estimate, verify. It pins the public API surface the
// examples and downstream users rely on.
func TestPublicAPIEndToEnd(t *testing.T) {
	traceCfg := vpm.TraceConfig{
		Seed:       101,
		DurationNS: int64(400e6),
		Paths:      []vpm.TracePathSpec{vpm.DefaultTracePath(100000)},
	}
	pkts, err := vpm.GenerateTrace(traceCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) < 30000 {
		t.Fatalf("trace too small: %d", len(pkts))
	}
	key := vpm.PathKey{Src: traceCfg.Paths[0].SrcPrefix, Dst: traceCfg.Paths[0].DstPrefix}

	path := vpm.Fig1Path(103)
	xi := path.DomainIndex("X")
	queue, err := vpm.NewCongestionQueue(vpm.BurstyUDPScenario(107))
	if err != nil {
		t.Fatal(err)
	}
	path.Domains[xi].Delay = queue
	loss, err := vpm.GilbertElliottLoss(0.15, 8, 109)
	if err != nil {
		t.Fatal(err)
	}
	path.Domains[xi].Loss = loss

	dep, err := vpm.NewDeployment(path, traceCfg.Table(), vpm.DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	truth, err := path.Run(pkts, dep.Observers())
	if err != nil {
		t.Fatal(err)
	}
	dep.Finalize()

	v := dep.NewVerifier(key)
	rep, err := v.DomainReport("X", vpm.DefaultQuantiles, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	xTruth, ok := truth.DomainByName("X")
	if !ok {
		t.Fatal("no ground truth for X")
	}
	if math.Abs(rep.Loss.Rate()-xTruth.LossRate()) > 1e-9 {
		t.Errorf("loss %v vs truth %v", rep.Loss.Rate(), xTruth.LossRate())
	}
	if len(rep.DelayEstimates) != 3 || rep.DelaySamples == 0 {
		t.Fatalf("delay estimation incomplete: %+v", rep)
	}
	for _, lv := range v.VerifyAllLinks() {
		if !lv.Consistent() {
			t.Errorf("honest link flagged: %v", lv)
		}
	}
}

// TestPublicAPIAdversary exercises the facade's threat-model tooling.
func TestPublicAPIAdversary(t *testing.T) {
	traceCfg := vpm.TraceConfig{
		Seed:       111,
		DurationNS: int64(300e6),
		Paths:      []vpm.TracePathSpec{vpm.DefaultTracePath(100000)},
	}
	pkts, err := vpm.GenerateTrace(traceCfg)
	if err != nil {
		t.Fatal(err)
	}
	key := vpm.PathKey{Src: traceCfg.Paths[0].SrcPrefix, Dst: traceCfg.Paths[0].DstPrefix}
	path := vpm.Fig1Path(113)
	loss, err := vpm.GilbertElliottLoss(0.2, 8, 127)
	if err != nil {
		t.Fatal(err)
	}
	path.Domains[path.DomainIndex("X")].Loss = loss
	dep, err := vpm.NewDeployment(path, traceCfg.Table(), vpm.DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := path.Run(pkts, dep.Observers()); err != nil {
		t.Fatal(err)
	}
	dep.Finalize()

	v := vpm.NewVerifier(dep.Layout())
	v.SetConfig(dep.VerifierConfig())
	var xInS vpm.SampleReceipt
	var xInA []vpm.AggReceipt
	for hop, proc := range dep.Processors {
		if hop == 5 {
			continue
		}
		for _, s := range proc.CombinedSamples() {
			if s.Path.Key == key {
				v.AddSampleReceipt(hop, s)
				if hop == 4 {
					xInS = s
				}
			}
		}
		var aggs []vpm.AggReceipt
		for _, a := range proc.Aggs {
			if a.Path.Key == key {
				aggs = append(aggs, a)
			}
		}
		v.AddAggReceipts(hop, aggs)
		if hop == 4 {
			xInA = aggs
		}
	}
	egressPath := path.PathIDFor(vpm.PathID{Key: key}, path.DomainIndex("X"), false)
	fs, fa := vpm.FabricateDelivery(xInS, xInA, egressPath, 500_000)
	v.AddSampleReceipt(5, fs)
	v.AddAggReceipts(5, fa)
	verdict := v.CheckLink(5, 6)
	if verdict.Consistent() {
		t.Fatal("facade adversary tooling failed to produce a detectable lie")
	}
}

// TestPublicAPIStoreAndStreaming pins the scaled verification
// surface: the one-shot report over every traffic key (epoch 0 of a
// one-epoch stream), keyed verifiers, and signed-bundle streaming
// ingest.
func TestPublicAPIStoreAndStreaming(t *testing.T) {
	traceCfg := vpm.TraceConfig{
		Seed:       131,
		DurationNS: int64(200e6),
		Paths:      []vpm.TracePathSpec{vpm.DefaultTracePath(100000)},
	}
	pkts, err := vpm.GenerateTrace(traceCfg)
	if err != nil {
		t.Fatal(err)
	}
	key := vpm.PathKey{Src: traceCfg.Paths[0].SrcPrefix, Dst: traceCfg.Paths[0].DstPrefix}
	path := vpm.Fig1Path(137)
	dep, err := vpm.NewDeployment(path, traceCfg.Table(), vpm.DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := path.Run(pkts, dep.Observers()); err != nil {
		t.Fatal(err)
	}
	dep.Finalize()

	// The one-shot report must reproduce the key's verifier verdicts
	// exactly.
	v := dep.NewVerifier(key)
	baseline := v.VerifyAllLinks()
	rep, err := dep.VerifyOnce(dep.VerifierConfig(), 0.95, dep.Seal)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Keys) != 1 || rep.Keys[0].Key != key {
		t.Fatalf("one-shot report covers %d keys, want the one path key", len(rep.Keys))
	}
	shared := rep.Keys[0].Links
	if len(shared) != len(baseline) {
		t.Fatalf("one-shot report holds %d verdicts, verifier %d", len(shared), len(baseline))
	}
	for i := range shared {
		if shared[i].String() != baseline[i].String() || shared[i].LinkID != i {
			t.Fatalf("verdict %d diverged: %v vs %v", i, shared[i], baseline[i])
		}
	}
	reports, err := v.DomainReports(vpm.DefaultQuantiles, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 || len(rep.Keys[0].Domains) != 3 { // L, X, N
		t.Fatalf("%d domain reports, %d in the one-shot report, want 3", len(reports), len(rep.Keys[0].Domains))
	}

	// Streaming ingest of signed bundles, fetched over HTTP and
	// authenticated frame by frame, must match batch ingest.
	reg := vpm.KeyRegistry{}
	mux := http.NewServeMux()
	for hop, proc := range dep.Processors {
		var seed [32]byte
		seed[0] = byte(hop)
		signer := vpm.NewBundleSigner(seed)
		reg[hop] = signer.Public()
		srv := vpm.NewBundleServer(hop, signer)
		srv.PublishEpoch(0, proc.CombinedSamples(), proc.Aggs)
		mux.Handle(fmt.Sprintf("/hop/%d", hop), srv)
	}
	hs := httptest.NewServer(mux)
	defer hs.Close()
	vs := vpm.NewVerifierFor(dep.Layout(), key)
	vs.SetConfig(dep.VerifierConfig())
	client := &vpm.BundleClient{Registry: reg}
	for hop := range dep.Processors {
		next, err := client.FetchEach(context.Background(), fmt.Sprintf("%s/hop/%d", hs.URL, hop), hop, 0, func(b *vpm.ReceiptBundle) error {
			vs.Ingest(b)
			return nil
		})
		if err != nil || next != 1 {
			t.Fatalf("HOP %v: cursor %d after its one bundle, err %v", hop, next, err)
		}
	}
	streamed := vs.VerifyAllLinks()
	for i := range streamed {
		if streamed[i].String() != baseline[i].String() {
			t.Fatalf("streamed verdict %d diverged: %v vs %v", i, streamed[i], baseline[i])
		}
	}
}

// TestPublicAPIReceipts pins receipt construction and combination.
func TestPublicAPIReceipts(t *testing.T) {
	p := vpm.PathID{Key: vpm.PathKey{
		Src: vpm.MakePrefix(10, 0, 0, 0, 8),
		Dst: vpm.MakePrefix(172, 16, 0, 0, 12),
	}}
	r1 := vpm.SampleReceipt{Path: p, Samples: []vpm.SampleRecord{{PktID: 1, TimeNS: 2}}}
	r2 := vpm.SampleReceipt{Path: p, Samples: []vpm.SampleRecord{{PktID: 3, TimeNS: 4}}}
	combined, err := vpm.CombineSamples(r1, r2)
	if err != nil || len(combined.Samples) != 2 {
		t.Fatalf("combine: %v, %d samples", err, len(combined.Samples))
	}
	a1 := vpm.AggReceipt{Path: p, PktCnt: 10}
	a2 := vpm.AggReceipt{Path: p, PktCnt: 5}
	agg, err := vpm.CombineAggregates(a1, a2)
	if err != nil || agg.PktCnt != 15 {
		t.Fatalf("aggregate combine: %v, count %d", err, agg.PktCnt)
	}
	if _, err := vpm.EstimateQuantile([]float64{1, 2, 3, 4, 5}, 0.5, 0.9); err != nil {
		t.Fatalf("quantile: %v", err)
	}
}

// TestPublicAPICollector drives a standalone collector — the per-HOP
// module deployments run — through the facade.
func TestPublicAPICollector(t *testing.T) {
	traceCfg := vpm.TraceConfig{Seed: 7, DurationNS: int64(100e6), Paths: []vpm.TracePathSpec{vpm.DefaultTracePath(100000)}}
	pkts, err := vpm.GenerateTrace(traceCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vpm.CollectorConfig{
		HOP:    4,
		Table:  traceCfg.Table(),
		PathID: func(key vpm.PathKey) vpm.PathID { return vpm.PathID{Key: key, PrevHOP: 3, NextHOP: 5} },
	}
	cfg.Sampling.MarkerRate, cfg.Sampling.SampleRate = 0.001, 0.01
	cfg.Aggregation.CutRate, cfg.Aggregation.WindowNS = 0.001, 2_000_000
	var col *vpm.Collector
	if col, err = vpm.NewCollector(cfg); err != nil {
		t.Fatal(err)
	}
	for i := range pkts {
		col.Observe(&pkts[i], pkts[i].Digest(1), int64(i)*10_000)
	}
	samples, aggs := col.Flush()
	var counted uint64
	for _, a := range aggs {
		counted += a.PktCnt
	}
	if observed, _ := col.Stats(); len(samples) != 1 || counted != observed || observed != uint64(len(pkts)) {
		t.Fatalf("%d sample receipts, aggregates count %d of %d observed (%d sent)", len(samples), counted, observed, len(pkts))
	}
}
