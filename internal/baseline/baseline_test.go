package baseline

import (
	"math"
	"testing"

	"vpm/internal/delaymodel"
	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// world runs a Fig-1 simulation with observers at X's ingress (4) and
// egress (5), returning the ground truth.
func world(t testing.TB, obs4, obs5 netsim.Observer, lossX float64, congestX bool, biased func(*packet.Packet, uint64) bool) *netsim.Result {
	t.Helper()
	tc := trace.Config{
		Seed:       21,
		DurationNS: int64(500e6),
		Paths:      []trace.PathSpec{trace.DefaultPath(100000)},
	}
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	path := netsim.Fig1Path(13)
	xi := path.DomainIndex("X")
	if lossX > 0 {
		ge, err := lossmodel.FromTargetLoss(lossX, 8, stats.NewRNG(2))
		if err != nil {
			t.Fatal(err)
		}
		path.Domains[xi].Loss = ge
	}
	if congestX {
		q, err := delaymodel.New(delaymodel.BurstyUDPScenario(4))
		if err != nil {
			t.Fatal(err)
		}
		path.Domains[xi].Delay = q
	}
	path.Domains[xi].Preferential = biased
	res, err := path.Run(pkts, map[receipt.HOPID]netsim.Observer{4: obs4, 5: obs5})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStrawmanExact(t *testing.T) {
	up, down := &Strawman{}, &Strawman{}
	res := world(t, up, down, 0.15, false, nil)
	truth, _ := res.DomainByName("X")
	lost, delays := StrawmanCompare(up, down)
	if lost != int(truth.DroppedInside) {
		t.Fatalf("strawman loss %d != truth %d", lost, truth.DroppedInside)
	}
	if len(delays) != int(truth.Out) {
		t.Fatalf("strawman delays %d != delivered %d", len(delays), truth.Out)
	}
	if up.ReceiptBytes() != int64(truth.In)*receipt.SampleRecordBytes {
		t.Error("strawman cost accounting wrong")
	}
}

func TestStrawmanCostNotTunable(t *testing.T) {
	// The §3.1 critique: receipt bytes scale with every packet.
	up := &Strawman{}
	res := world(t, up, &Strawman{}, 0, false, nil)
	perPkt := float64(up.ReceiptBytes()) / float64(res.Sent)
	if perPkt != float64(receipt.SampleRecordBytes) {
		t.Fatalf("strawman cost %v B/pkt, want %d", perPkt, receipt.SampleRecordBytes)
	}
}

func TestTSPPHonestEstimation(t *testing.T) {
	up := NewTrajectorySampling(0.01)
	down := NewTrajectorySampling(0.01)
	res := world(t, up, down, 0.20, true, nil)
	truth, _ := res.DomainByName("X")
	est := TSPPCompare(up, down, 0.95)
	if est.SampledIn < 300 {
		t.Fatalf("too few samples: %d", est.SampledIn)
	}
	if math.Abs(est.LossRate-truth.LossRate()) > 0.05 {
		t.Errorf("TS++ honest loss %v vs truth %v", est.LossRate, truth.LossRate())
	}
	acc, err := quantile.AccuracyNS(est.DelaysNS, truth.TrueDelaysNS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if acc > 4e6 {
		t.Errorf("TS++ honest delay accuracy %vms too poor", acc/1e6)
	}
	if up.Observed() == 0 || up.ReceiptBytes() == 0 {
		t.Error("accounting empty")
	}
}

func TestTSPPBiasAttackSucceeds(t *testing.T) {
	// §3.2: the domain recognizes sampled packets at forwarding time
	// and exempts them from loss and congestion. Its estimated
	// performance becomes near-perfect while real traffic suffers.
	up := NewTrajectorySampling(0.01)
	down := NewTrajectorySampling(0.01)
	biased := func(_ *packet.Packet, digest uint64) bool { return up.Sampled(digest) }
	res := world(t, up, down, 0.20, true, biased)
	truth, _ := res.DomainByName("X")
	est := TSPPCompare(up, down, 0.95)
	if truth.LossRate() < 0.15 {
		t.Fatalf("true loss %v should remain high for unsampled traffic", truth.LossRate())
	}
	if est.LossRate > 0.02 {
		t.Fatalf("bias attack failed: estimated loss %v", est.LossRate)
	}
	// Estimated delays flatter too: every sampled packet skipped the
	// congestion queue.
	p90est := stats.Quantile(est.DelaysNS, 0.9)
	p90true := stats.Quantile(truth.TrueDelaysNS, 0.9)
	if p90est > p90true/2 {
		t.Errorf("bias attack should flatter delays: est p90 %vms vs true %vms",
			p90est/1e6, p90true/1e6)
	}
}

func TestDAPPHonestNoReorder(t *testing.T) {
	// With reordering disabled, DA++ computes loss exactly and mean
	// delay well.
	up := NewDiffAggregator(0.001)
	down := NewDiffAggregator(0.001)
	tc := trace.Config{
		Seed:       22,
		DurationNS: int64(500e6),
		Paths:      []trace.PathSpec{trace.DefaultPath(100000)},
	}
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	path := netsim.Fig1Path(14)
	for i := range path.Domains {
		path.Domains[i].ReorderJitterNS = 0
	}
	for i := range path.Links {
		path.Links[i].JitterNS = 0
	}
	xi := path.DomainIndex("X")
	ge, _ := lossmodel.FromTargetLoss(0.10, 8, stats.NewRNG(3))
	path.Domains[xi].Loss = ge
	res, err := path.Run(pkts, map[receipt.HOPID]netsim.Observer{4: up, 5: down})
	if err != nil {
		t.Fatal(err)
	}
	up.Flush()
	down.Flush()
	truth, _ := res.DomainByName("X")
	est := DAPPCompare(up, down)
	if est.AlignedPairs == 0 {
		t.Fatal("no aligned aggregates")
	}
	// Loss within aligned aggregates tracks the true rate. (Some
	// aggregates misalign when a cutting point itself is dropped.)
	if math.Abs(est.LossRate()-truth.LossRate()) > 0.03 {
		t.Errorf("DA++ loss %v vs truth %v", est.LossRate(), truth.LossRate())
	}
	if est.LossFreePairs > 0 && est.MeanDelayNS <= 0 {
		t.Error("mean delay not computed")
	}
}

func TestDAPPBreaksUnderReordering(t *testing.T) {
	// §3.3: reordering around cutting points misaligns aggregates;
	// a substantial fraction become unusable. (VPM's AggTrans
	// patch-up is the fix — see internal/aggregation tests.)
	mk := func(jitter int64) DAPPEstimate {
		up := NewDiffAggregator(0.01)
		down := NewDiffAggregator(0.01)
		tc := trace.Config{
			Seed:       23,
			DurationNS: int64(300e6),
			Paths:      []trace.PathSpec{trace.DefaultPath(100000)},
		}
		pkts, err := trace.Generate(tc)
		if err != nil {
			t.Fatal(err)
		}
		path := netsim.Fig1Path(15)
		for i := range path.Domains {
			path.Domains[i].ReorderJitterNS = jitter
		}
		if _, err := path.Run(pkts, map[receipt.HOPID]netsim.Observer{4: up, 5: down}); err != nil {
			t.Fatal(err)
		}
		up.Flush()
		down.Flush()
		return DAPPCompare(up, down)
	}
	ordered := mk(0)
	reordered := mk(500_000) // 0.5 ms jitter at 10 µs packet spacing
	if ordered.UsableFraction() < 0.95 {
		t.Fatalf("ordered run should align nearly all aggregates, got %v", ordered.UsableFraction())
	}
	if reordered.UsableFraction() > ordered.UsableFraction()-0.05 {
		t.Errorf("reordering should break alignment: %v vs %v",
			reordered.UsableFraction(), ordered.UsableFraction())
	}
}

func TestDAPPEmptyEstimate(t *testing.T) {
	var e DAPPEstimate
	if e.LossRate() != 0 || e.UsableFraction() != 0 {
		t.Error("zero-value estimate should be all zeros")
	}
}

// ReceiptBytes returns the reporting cost: one 〈PktID, Time〉 record
// per packet at the wire record size.
func (s *Strawman) ReceiptBytes() int64 {
	return int64(len(s.Records)) * receipt.SampleRecordBytes
}

// Observed returns the total packets seen.
func (t *TrajectorySampling) Observed() uint64 { return t.observed }

// ReceiptBytes returns the reporting cost.
func (t *TrajectorySampling) ReceiptBytes() int64 {
	return int64(len(t.Records)) * receipt.SampleRecordBytes
}
