package core

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// goldenFig1Receipts is the SHA-256 prefix of every HOP's encoded
// receipts, HOPs ascending, for the world of TestFig1GoldenReceipts,
// captured at commit 5cdd3dd from the linear simulator and deployment
// constructor this test outlives.
const goldenFig1Receipts = "41e98699ccc99375"

// TestFig1GoldenReceipts pins what a chain deployment does with traffic
// no bench workload carries: two traffic keys at once, plus background
// packets that match no prefix. A Path forwards all three — the
// background packets consume loss and jitter draws like any other, so
// which keyed packets drop and when they arrive, and with them every
// receipt byte, depend on the background being forwarded — and every
// HOP stamps both keys with the same neighbours.
func TestFig1GoldenReceipts(t *testing.T) {
	tc := equivTraceConfig(2, 60_000, int64(3e8))
	keyed, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	background, err := trace.Generate(trace.Config{
		Seed:       43,
		DurationNS: int64(3e8),
		Paths: []trace.PathSpec{{
			SrcPrefix:    packet.MakePrefix(203, 0, 113, 0, 24),
			DstPrefix:    packet.MakePrefix(198, 51, 100, 0, 24),
			RatePPS:      20_000,
			ActiveFlows:  16,
			MeanFlowPkts: 50,
			UDPFraction:  0.5,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pkts := append(keyed, background...)
	slices.SortStableFunc(pkts, func(a, b packet.Packet) int {
		switch {
		case a.SentAt < b.SentAt:
			return -1
		case a.SentAt > b.SentAt:
			return 1
		}
		return 0
	})

	path := netsim.Fig1Path(77)
	ge, err := lossmodel.FromTargetLoss(0.05, 8, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	path.Domains[path.DomainIndex("X")].Loss = ge
	cfg := DefaultDeployConfig()
	cfg.MarkerRate = 0.01
	cfg.Default.AggRate = 0.001
	dep, err := NewDeployment(path, tc.Table(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := path.Run(pkts, dep.Observers())
	if err != nil {
		t.Fatal(err)
	}
	dep.Finalize()

	if res.Sent != len(pkts) {
		t.Fatalf("sent %d of %d packets", res.Sent, len(pkts))
	}
	// HOP 1 sits before any loss: it observes every packet sent and
	// classifies all but the background.
	if observed, unclassified := dep.Collectors[1].Stats(); observed != uint64(len(pkts)) || unclassified != uint64(len(background)) {
		t.Fatalf("HOP 1 observed %d (want %d), %d unclassified (want %d)", observed, len(pkts), unclassified, len(background))
	}
	h := sha256.New()
	for _, id := range dep.HOPs() {
		proc := dep.Processors[id]
		keys := make(map[packet.PathKey]bool)
		for _, a := range proc.Aggs {
			keys[a.Path.Key] = true
		}
		if len(keys) != 2 {
			t.Fatalf("HOP %v filed aggregates for %d keys, want 2", id, len(keys))
		}
		h.Write(encodeReceipts(proc.CombinedSamples(), proc.Aggs))
	}
	if got := hex.EncodeToString(h.Sum(nil)[:8]); got != goldenFig1Receipts {
		t.Fatalf("encoded-receipt digest %s, want %s", got, goldenFig1Receipts)
	}
}
