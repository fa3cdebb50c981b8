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

// fig1Deployment builds a fresh Fig1 path (same seed every call, so
// loss/jitter randomness is identical across runs) and a default
// deployment on it.
func fig1Deployment(t testing.TB, tc trace.Config) (*netsim.Path, *Deployment) {
	t.Helper()
	path := netsim.Fig1Path(77)
	dep, err := NewDeployment(path, tc.Table(), DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	return path, dep
}

// runDeployment replays pkts into a fig1Deployment and finalizes it.
func runDeployment(t testing.TB, tc trace.Config, pkts []packet.Packet) (*Deployment, *netsim.Result) {
	t.Helper()
	path, dep := fig1Deployment(t, tc)
	res, err := path.Run(pkts, dep.Observers())
	if err != nil {
		t.Fatal(err)
	}
	dep.Finalize()
	return dep, res
}

// runReference is runDeployment with a referenceCollector standing at
// every HOP, under the configuration the deployment gave that HOP's
// collector; the collectors come back fed and not yet flushed.
func runReference(t testing.TB, tc trace.Config, pkts []packet.Packet) (map[receipt.HOPID]*referenceCollector, *netsim.Result) {
	t.Helper()
	path, dep := fig1Deployment(t, tc)
	refs := make(map[receipt.HOPID]*referenceCollector, len(dep.Collectors))
	observers := make(map[receipt.HOPID]netsim.Observer, len(dep.Collectors))
	for id, col := range dep.Collectors {
		refs[id] = newReferenceCollector(t, col.cfg)
		observers[id] = refs[id]
	}
	res, err := path.Run(pkts, observers)
	if err != nil {
		t.Fatal(err)
	}
	return refs, res
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
// pipeline: a deployment as built and the same path with the per-packet
// referenceCollector at every HOP, fed the same 100k-packet trace, emit
// byte-identical receipt sets at every HOP, with matching counters and
// memory accounting.
func TestShardedSerialEquivalence(t *testing.T) {
	tc := equivTraceConfig(3, 100_000, int64(1e9)) // ~100k packets over 3 paths
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) < 90_000 {
		t.Fatalf("trace too small for the acceptance scale: %d packets", len(pkts))
	}

	refs, resR := runReference(t, tc, pkts)
	dep, resD := runDeployment(t, tc, pkts)

	if !reflect.DeepEqual(resR, resD) {
		t.Fatal("ground truth differs between reference and deployed runs")
	}
	if len(refs) != len(dep.Collectors) {
		t.Fatalf("%d reference collectors, %d deployed", len(refs), len(dep.Collectors))
	}
	for id, ref := range refs {
		col := dep.Collectors[id]
		ro, ru := ref.Stats()
		do, du := col.Stats()
		if ro != do || ru != du {
			t.Errorf("%v: stats differ: reference (%d,%d) deployed (%d,%d)", id, ro, ru, do, du)
		}
		rm, dm := ref.Memory(), col.Memory()
		if rm.ActivePaths != dm.ActivePaths {
			t.Errorf("%v: active paths differ: %d vs %d", id, rm.ActivePaths, dm.ActivePaths)
		}
		if rm.TempBufferPeakEntries != dm.TempBufferPeakEntries {
			t.Errorf("%v: temp-buffer peak differs: %d vs %d", id, rm.TempBufferPeakEntries, dm.TempBufferPeakEntries)
		}

		wantS, wantA := ref.Flush()
		proc := dep.Processors[id]
		if !bytes.Equal(encodeReceipts(wantS, wantA), encodeReceipts(proc.Samples, proc.Aggs)) {
			t.Errorf("%v: receipt wire bytes differ between reference and deployed", id)
		}
		if !reflect.DeepEqual(wantS, proc.Samples) {
			t.Errorf("%v: sample receipts differ", id)
		}
		if !reflect.DeepEqual(wantA, proc.Aggs) {
			t.Errorf("%v: aggregate receipts differ", id)
		}
	}
}

// TestDrainDeterminism is the regression test for the old
// map-iteration drain order: two identical runs must produce identical
// (ordered) drain output, from the deployed collector and from the
// reference.
func TestDrainDeterminism(t *testing.T) {
	tc := equivTraceConfig(5, 50_000, int64(400e6))
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	for _, oracle := range []bool{true, false} {
		var prev map[receipt.HOPID][]byte
		for run := 0; run < 2; run++ {
			cur := make(map[receipt.HOPID][]byte)
			if oracle {
				refs, _ := runReference(t, tc, pkts)
				for id, ref := range refs {
					cur[id] = encodeReceipts(ref.Flush())
				}
			} else {
				dep, _ := runDeployment(t, tc, pkts)
				for id, p := range dep.Processors {
					cur[id] = encodeReceipts(p.Samples, p.Aggs)
				}
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
// simulator: single-packet Observe on the reference versus ObserveBatch
// on the deployed collector must agree on receipts, counters and active
// paths — including unclassified traffic.
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
	serial := newReferenceCollector(t, cfg)
	sharded, err := NewCollector(cfg)
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
	dep, res := runDeployment(t, tc, pkts)
	var observed uint64
	for _, c := range dep.Collectors {
		o, _ := c.Stats()
		observed += o
	}
	if observed == 0 || res.Delivered == 0 {
		t.Fatalf("concurrent run observed nothing: %d observations, %d delivered", observed, res.Delivered)
	}
}
