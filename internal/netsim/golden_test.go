package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"vpm/internal/delaymodel"
	"vpm/internal/lossmodel"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// streamDigest hashes one HOP's delivered observation stream: packet
// digest and observation time, in delivery order.
func streamDigest(stream []obsRecord) string {
	var buf []byte
	for _, o := range stream {
		buf = binary.LittleEndian.AppendUint64(buf, o.digest)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o.timeNS))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// goldenChain is the perturbed five-domain chain the golden digests
// were captured on: burst loss and a congestion queue inside T2, burst
// loss on link 0, clock skew on both of T1's HOPs.
func goldenChain(t *testing.T) *Path {
	t.Helper()
	p := LinearPath(42, 5)
	dl, err := lossmodel.FromTargetLoss(0.05, 4, stats.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	p.Domains[2].Loss = dl
	q, err := delaymodel.New(delaymodel.BurstyUDPScenario(17))
	if err != nil {
		t.Fatal(err)
	}
	p.Domains[2].Delay = q
	ll, err := lossmodel.FromTargetLoss(0.02, 4, stats.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	p.Links[0].Loss = ll
	p.Domains[1].IngressSkewNS = 40_000
	p.Domains[1].EgressSkewNS = -25_000
	return p
}

// goldenStreams are the per-HOP observation-stream digests of
// goldenChain under the trace below, captured from the linear Runner at
// commit 5cdd3dd, the last one that had a forwarding sweep of its own.
var goldenStreams = [...]string{
	1: "6a7bfe4ede2e0576",
	2: "381098885539178e",
	3: "8c76e64b328d3952",
	4: "bcd2aa39de4781ad",
	5: "15e6c75ad0778ce6",
	6: "24f3d8814562fb5c",
	7: "ab2a53cc28224428",
	8: "932cb34efc71a508",
}

// goldenTruth digests the run's ground truth: delivered count, link
// drops, and every domain's In / Out / DroppedInside / true delays.
const goldenTruth = "ae3452fcd7cdf390"

func truthDigest(results []*Result) string {
	var delivered int
	var drops []uint64
	var doms []DomainTruth
	for _, res := range results {
		delivered += res.Delivered
		if drops == nil {
			drops = make([]uint64, len(res.LinkDrops))
			doms = make([]DomainTruth, len(res.Domains))
		}
		for i, d := range res.LinkDrops {
			drops[i] += d
		}
		for i, d := range res.Domains {
			doms[i].In += d.In
			doms[i].Out += d.Out
			doms[i].DroppedInside += d.DroppedInside
			doms[i].TrueDelaysNS = append(doms[i].TrueDelaysNS, d.TrueDelaysNS...)
		}
	}
	b := binary.LittleEndian.AppendUint64(nil, uint64(delivered))
	for _, d := range drops {
		b = binary.LittleEndian.AppendUint64(b, d)
	}
	for _, d := range doms {
		b = binary.LittleEndian.AppendUint64(b, d.In)
		b = binary.LittleEndian.AppendUint64(b, d.Out)
		b = binary.LittleEndian.AppendUint64(b, d.DroppedInside)
		for _, x := range d.TrueDelaysNS {
			b = binary.LittleEndian.AppendUint64(b, uint64(int64(x)))
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// TestTopoLinearEquivalence holds a chain built as a Path to the streams
// the deleted linear simulator delivered, one-shot and in seven
// segments: same RNG split order, same HOP numbering, same withholding.
func TestTopoLinearEquivalence(t *testing.T) {
	pkts, err := trace.Generate(trace.Config{
		Seed:       7,
		DurationNS: 2e8,
		Paths:      []trace.PathSpec{trace.DefaultPath(50000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, recs map[receipt.HOPID]*obsRecorder, results []*Result) {
		t.Helper()
		for h := 1; h < len(goldenStreams); h++ {
			if got := streamDigest(recs[receipt.HOPID(h)].got); got != goldenStreams[h] {
				t.Errorf("%s: HOP %d stream digest %s, want %s", name, h, got, goldenStreams[h])
			}
		}
		if got := truthDigest(results); got != goldenTruth {
			t.Errorf("%s: ground-truth digest %s, want %s", name, got, goldenTruth)
		}
	}
	one := goldenChain(t)
	if one.NumHOPs() != len(goldenStreams)-1 {
		t.Fatalf("chain has %d HOPs, goldens cover %d", one.NumHOPs(), len(goldenStreams)-1)
	}
	obs, recs := recorders(one.NumHOPs())
	res, err := one.Run(append([]packet.Packet(nil), pkts...), obs)
	if err != nil {
		t.Fatal(err)
	}
	check("one-shot", recs, []*Result{res})

	seg := goldenChain(t)
	runner, err := NewRunner(seg)
	if err != nil {
		t.Fatal(err)
	}
	obs, recs = recorders(seg.NumHOPs())
	const segments = 7
	pcopy := append([]packet.Packet(nil), pkts...)
	var results []*Result
	start := 0
	for s := 1; s <= segments; s++ {
		horizon := int64(s) * int64(2e8) / segments
		end := start
		for end < len(pcopy) && pcopy[end].SentAt < horizon {
			end++
		}
		res, err := runner.RunSegment(pcopy[start:end], obs, horizon)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		start = end
	}
	res, err = runner.Run(pcopy[start:], obs)
	if err != nil {
		t.Fatal(err)
	}
	check("seven segments", recs, append(results, res))
}
