package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// goldenFig1Receipts is the SHA-256 prefix of every HOP's receipts in
// the fixed-width rendering below, HOPs ascending, for the world of
// TestFig1GoldenReceipts, captured at commit 5cdd3dd from the linear
// simulator and deployment constructor this test outlives. It pins the
// collector's output, not the wire codec.
const goldenFig1Receipts = "41e98699ccc99375"

// fixedWidthReceipts renders receipts in the fixed-width layout the
// wire codec had when goldenFig1Receipts was captured — little-endian,
// every field at full width: PathID as src addr[4] bits[1] dst addr[4]
// bits[1] prevHOP[4] nextHOP[4] maxDiff[8] pad[2]; a sample receipt as
// kind[1]=1 PathID count[4] (pktID[8] time[8])*; an aggregate as
// kind[1]=2 PathID first[8] last[8] pktCnt[8] count[4] (pktID[8]
// time[8])*. Every field a receipt holds appears in it, so two receipt
// sets render alike exactly when they are equal.
func fixedWidthReceipts(samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) []byte {
	var b []byte
	path := func(kind byte, p receipt.PathID) {
		b = append(b, kind)
		b = append(b, p.Key.Src.Addr[:]...)
		b = append(b, p.Key.Src.Bits)
		b = append(b, p.Key.Dst.Addr[:]...)
		b = append(b, p.Key.Dst.Bits)
		b = binary.LittleEndian.AppendUint32(b, uint32(p.PrevHOP))
		b = binary.LittleEndian.AppendUint32(b, uint32(p.NextHOP))
		b = binary.LittleEndian.AppendUint64(b, uint64(p.MaxDiffNS))
		b = append(b, 0, 0)
	}
	records := func(rs []receipt.SampleRecord) {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(rs)))
		for _, r := range rs {
			b = binary.LittleEndian.AppendUint64(b, r.PktID)
			b = binary.LittleEndian.AppendUint64(b, uint64(r.TimeNS))
		}
	}
	for _, s := range samples {
		path(1, s.Path)
		records(s.Samples)
	}
	for _, a := range aggs {
		path(2, a.Path)
		b = binary.LittleEndian.AppendUint64(b, a.Agg.First)
		b = binary.LittleEndian.AppendUint64(b, a.Agg.Last)
		b = binary.LittleEndian.AppendUint64(b, a.PktCnt)
		records(a.AggTrans)
	}
	return b
}

// TestFig1GoldenReceipts pins what a chain deployment does with traffic
// no bench workload carries: two traffic keys at once, plus background
// packets that match no prefix. A Path forwards all three — the
// background packets consume loss and jitter draws like any other, so
// which keyed packets drop and when they arrive, and with them every
// receipt byte, depend on the background being forwarded — and every
// HOP stamps both keys with the same neighbours. Every HOP's receipts
// also round-trip through the wire codec.
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
		samples := proc.CombinedSamples()
		fixed := fixedWidthReceipts(samples, proc.Aggs)
		h.Write(fixed)
		ds, da, rest, err := receipt.DecodeReceipts(encodeReceipts(samples, proc.Aggs), uint32(len(samples)), uint32(len(proc.Aggs)))
		if err != nil || len(rest) != 0 {
			t.Fatalf("HOP %v: decoding its receipts: %v, %d bytes left", id, err, len(rest))
		}
		if !bytes.Equal(fixedWidthReceipts(ds, da), fixed) {
			t.Fatalf("HOP %v: receipts changed crossing the wire codec", id)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)[:8]); got != goldenFig1Receipts {
		t.Fatalf("encoded-receipt digest %s, want %s", got, goldenFig1Receipts)
	}
}
