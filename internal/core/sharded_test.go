package core

import (
	"bytes"
	"reflect"
	"testing"

	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/trace"
)

// equivTraceConfig builds a multi-path trace so collectors hold several
// active paths (exercising drain ordering). Total rate
// is split evenly across paths.
func equivTraceConfig(paths int, totalPPS float64, durationNS int64) trace.Config {
	cfg := trace.Config{Seed: 42, DurationNS: durationNS}
	for i := 0; i < paths; i++ {
		cfg.Paths = append(cfg.Paths, trace.PathSpec{
			SrcPrefix:    packet.MakePrefix(10, byte(1+i), 0, 0, 16),
			DstPrefix:    packet.MakePrefix(172, byte(16+i), 0, 0, 16),
			RatePPS:      totalPPS / float64(paths),
			ActiveFlows:  32,
			MeanFlowPkts: 50,
			UDPFraction:  0.2,
		})
	}
	return cfg
}

// runDeployment replays pkts over a fresh Fig1 path (same seed every
// call, so loss/jitter randomness is identical across runs) into a
// default deployment — with every HOP's collector swapped for the
// reference Collector under the same configuration when oracle is set
// — and finalizes it.
func runDeployment(t testing.TB, tc trace.Config, pkts []packet.Packet, oracle bool) (*Deployment, *netsim.Result) {
	t.Helper()
	path := netsim.Fig1Path(77)
	dep, err := NewDeployment(path, tc.Table(), DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	if oracle {
		for id, pc := range dep.Collectors {
			ref, err := NewCollector(pc.(*ShardedCollector).cfg)
			if err != nil {
				t.Fatal(err)
			}
			dep.Collectors[id] = ref
			dep.Processors[id] = NewProcessor(ref)
		}
	}
	res, err := path.Run(pkts, dep.Observers())
	if err != nil {
		t.Fatal(err)
	}
	dep.Finalize()
	return dep, res
}

// encodeReceipts renders a HOP's full receipt output to wire bytes, so
// equivalence can be asserted byte-for-byte.
func encodeReceipts(samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) []byte {
	var b []byte
	for _, s := range samples {
		b = s.AppendBinary(b)
	}
	for _, a := range aggs {
		b = a.AppendBinary(b)
	}
	return b
}

// TestShardedSerialEquivalence is the acceptance check of the batched
// pipeline: a deployment as built (a ShardedCollector per HOP) and the
// same deployment running the serial reference Collector, fed the same
// 100k-packet trace, emit byte-identical receipt sets at every HOP,
// with matching counters and memory accounting.
func TestShardedSerialEquivalence(t *testing.T) {
	tc := equivTraceConfig(3, 100_000, int64(1e9)) // ~100k packets over 3 paths
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) < 90_000 {
		t.Fatalf("trace too small for the acceptance scale: %d packets", len(pkts))
	}

	serial, resS := runDeployment(t, tc, pkts, true)
	sharded, resP := runDeployment(t, tc, pkts, false)

	if !reflect.DeepEqual(resS, resP) {
		t.Fatal("ground truth differs between serial and sharded runs")
	}
	for id, sc := range serial.Collectors {
		pc, ok := sharded.Collectors[id]
		if !ok {
			t.Fatalf("sharded deployment missing %v", id)
		}
		if _, ok := sc.(*Collector); !ok {
			t.Fatalf("%v: expected the reference Collector, got %T", id, sc)
		}
		if _, ok := pc.(*ShardedCollector); !ok {
			t.Fatalf("%v: expected a ShardedCollector, got %T", id, pc)
		}
		so, su := sc.Stats()
		po, pu := pc.Stats()
		if so != po || su != pu {
			t.Errorf("%v: stats differ: serial (%d,%d) sharded (%d,%d)", id, so, su, po, pu)
		}
		sm, pm := sc.Memory(), pc.Memory()
		if sm.ActivePaths != pm.ActivePaths {
			t.Errorf("%v: active paths differ: %d vs %d", id, sm.ActivePaths, pm.ActivePaths)
		}
		if sm.TempBufferPeakEntries != pm.TempBufferPeakEntries {
			t.Errorf("%v: temp-buffer peak differs: %d vs %d", id, sm.TempBufferPeakEntries, pm.TempBufferPeakEntries)
		}

		ps, pp := serial.Processors[id], sharded.Processors[id]
		if !bytes.Equal(encodeReceipts(ps.Samples, ps.Aggs), encodeReceipts(pp.Samples, pp.Aggs)) {
			t.Errorf("%v: receipt wire bytes differ between serial and sharded", id)
		}
		if !reflect.DeepEqual(ps.Samples, pp.Samples) {
			t.Errorf("%v: sample receipts differ", id)
		}
		if !reflect.DeepEqual(ps.Aggs, pp.Aggs) {
			t.Errorf("%v: aggregate receipts differ", id)
		}
	}
}

// TestDrainDeterminism is the regression test for the old
// map-iteration drain order: two identical runs must produce identical
// (ordered) drain output, for both collector variants.
func TestDrainDeterminism(t *testing.T) {
	tc := equivTraceConfig(5, 50_000, int64(400e6))
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	for _, oracle := range []bool{true, false} {
		var prev map[receipt.HOPID][]byte
		for run := 0; run < 2; run++ {
			dep, _ := runDeployment(t, tc, pkts, oracle)
			cur := make(map[receipt.HOPID][]byte)
			for id, p := range dep.Processors {
				cur[id] = encodeReceipts(p.Samples, p.Aggs)
			}
			if prev != nil {
				for id, b := range cur {
					if !bytes.Equal(prev[id], b) {
						t.Errorf("oracle=%v %v: drain output differs between identical runs", oracle, id)
					}
				}
			}
			prev = cur
		}
	}
}

// TestShardedCollectorDirect exercises the collector layer without the
// simulator: single-packet Observe on a serial collector versus
// ObserveBatch on a sharded one must agree on receipts, counters and
// active paths — including unclassified traffic.
func TestShardedCollectorDirect(t *testing.T) {
	tc := equivTraceConfig(4, 40_000, int64(500e6))
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CollectorConfig{
		HOP:   4,
		Table: tc.Table(),
		PathID: func(key packet.PathKey) receipt.PathID {
			return receipt.PathID{Key: key, PrevHOP: 3, NextHOP: 5, MaxDiffNS: 3_000_000}
		},
		Sampling:    DefaultSamplingConfig(),
		Aggregation: DefaultAggregationConfig(),
	}
	serial, err := NewCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// An unclassifiable packet interleaved every 1000 packets.
	alien := pkts[0]
	alien.Src = [4]byte{192, 0, 2, 1}
	alien.Dst = [4]byte{198, 51, 100, 1}

	var batch []netsim.Observation
	flushBatch := func() {
		sharded.ObserveBatch(batch)
		batch = batch[:0]
	}
	for i := range pkts {
		pkt := &pkts[i]
		digest := pkt.Digest(1)
		tNS := int64(i) * 10_000
		serial.Observe(pkt, digest, tNS)
		batch = append(batch, netsim.Observation{Pkt: pkt, Digest: digest, TimeNS: tNS})
		if i%1000 == 999 {
			serial.Observe(&alien, alien.Digest(1), tNS)
			batch = append(batch, netsim.Observation{Pkt: &alien, Digest: alien.Digest(1), TimeNS: tNS})
		}
		if len(batch) >= 4096 {
			flushBatch()
		}
	}
	flushBatch()

	so, su := serial.Stats()
	po, pu := sharded.Stats()
	if so != po || su != pu {
		t.Fatalf("stats differ: serial (%d,%d) sharded (%d,%d)", so, su, po, pu)
	}
	if su == 0 {
		t.Fatal("test expected unclassified packets")
	}
	if sp, pp := serial.Memory().ActivePaths, sharded.Memory().ActivePaths; sp != pp || sp != 4 {
		t.Fatalf("active paths: serial %d sharded %d (want 4)", sp, pp)
	}
	ss, sa := serial.Drain()
	hs, ha := sharded.Drain()
	if !bytes.Equal(encodeReceipts(ss, sa), encodeReceipts(hs, ha)) {
		t.Fatal("drained receipts differ between serial Observe and sharded ObserveBatch")
	}
	ss, sa = serial.Flush()
	hs, ha = sharded.Flush()
	if !bytes.Equal(encodeReceipts(ss, sa), encodeReceipts(hs, ha)) {
		t.Fatal("flushed receipts differ between serial Observe and sharded ObserveBatch")
	}
}

// TestShardedReplayRace drives the concurrent replay — netsim's
// parallel per-HOP workers, each feeding its HOP's collector — so
// `go test -race` patrols the whole pipeline.
func TestShardedReplayRace(t *testing.T) {
	tc := equivTraceConfig(4, 100_000, int64(1e9))
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	dep, res := runDeployment(t, tc, pkts, false)
	var observed uint64
	for _, c := range dep.Collectors {
		o, _ := c.Stats()
		observed += o
	}
	if observed == 0 || res.Delivered == 0 {
		t.Fatalf("concurrent run observed nothing: %d observations, %d delivered", observed, res.Delivered)
	}
}
