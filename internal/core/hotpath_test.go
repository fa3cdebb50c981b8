package core

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"vpm/internal/hashing"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// hotpathWorkload builds a deterministic multi-path observation stream
// chunked into batches. The same digests repeat on every feed pass (so
// marker and cut positions are identical run to run); timestamps are
// shifted forward by span between passes to keep HOP clocks monotonic.
func hotpathWorkload(t testing.TB, npkts int) (batches [][]netsim.Observation, span int64, cfg CollectorConfig) {
	t.Helper()
	tc := equivTraceConfig(4, 100_000, int64(npkts)*10_000)
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) > npkts {
		pkts = pkts[:npkts]
	}
	obs := make([]netsim.Observation, len(pkts))
	for i := range pkts {
		obs[i] = netsim.Observation{Pkt: &pkts[i], Digest: pkts[i].Digest(1), TimeNS: int64(i) * 10_000}
	}
	for off := 0; off < len(obs); off += 4096 {
		end := off + 4096
		if end > len(obs) {
			end = len(obs)
		}
		batches = append(batches, obs[off:end])
	}
	cfg = CollectorConfig{
		HOP:   4,
		Table: tc.Table(),
		PathID: func(key packet.PathKey) receipt.PathID {
			return receipt.PathID{Key: key, PrevHOP: 3, NextHOP: 5, MaxDiffNS: 3_000_000}
		},
		Sampling:    DefaultSamplingConfig(),
		Aggregation: DefaultAggregationConfig(),
	}
	return batches, int64(len(obs)) * 10_000, cfg
}

// zipfPicker returns a seeded Zipf(s) draw over n ranks.
func zipfPicker(n int, s float64, seed uint64) func() int {
	cdf := make([]float64, n)
	sum := 0.0
	for r := range cdf {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	rng := stats.NewRNG(seed)
	return func() int { return min(sort.SearchFloat64s(cdf, rng.Float64()*sum), n-1) }
}

// wideWorkload builds n observations 10 µs apart over
// netsim.WideKeys(nKeys), the i-th on key pick(), and the collector
// configuration that classifies them. ranks[i] is observation i's key.
func wideWorkload(nKeys, n int, pick func() int) (obs []netsim.Observation, ranks []int, cfg CollectorConfig) {
	keys := netsim.WideKeys(nKeys)
	prefixes := make([]packet.Prefix, 0, 2*nKeys)
	for _, k := range keys {
		prefixes = append(prefixes, k.Src, k.Dst)
	}
	pkts := make([]packet.Packet, n)
	obs = make([]netsim.Observation, n)
	ranks = make([]int, n)
	for i := range pkts {
		k := pick()
		ranks[i] = k
		pkts[i] = packet.Packet{Src: keys[k].Src.Addr, Dst: keys[k].Dst.Addr, IPID: uint16(i)}
		obs[i] = netsim.Observation{Pkt: &pkts[i], Digest: hashing.Mix64(uint64(i) + 1), TimeNS: int64(i) * 10_000}
	}
	return obs, ranks, evictCfg(packet.NewTable(prefixes), 0)
}

// zipfHotpathWorkload is hotpathWorkload shaped like a mesh HOP's
// traffic: each observation's key is a Zipf(1.01) draw over
// netsim.WideKeys(2048), so a 256-observation sub-batch holds some 140
// paths in runs barely longer than one. Every key's first packet of a
// pass carries a digest in the marker band — above µ, below the cut
// threshold δ — so each path's pre-marker buffer empties once per pass,
// as it does on any path that has run for a marker period: with the
// digests repeating pass after pass, a rare key's buffer would
// otherwise never see a marker and grow for ever.
func zipfHotpathWorkload(t testing.TB, npkts int) (batches [][]netsim.Observation, span int64, cfg CollectorConfig) {
	t.Helper()
	const nKeys = 2048
	obs, ranks, cfg := wideWorkload(nKeys, npkts, zipfPicker(nKeys, 1.01, 11))
	mu := hashing.ThresholdForRate(cfg.Sampling.MarkerRate)
	if delta := hashing.ThresholdForRate(cfg.Aggregation.CutRate); mu+nKeys >= delta {
		t.Fatalf("no marker band between µ %#x and δ %#x", mu, delta)
	}
	seen := make([]bool, nKeys)
	for i, k := range ranks {
		if !seen[k] {
			seen[k] = true
			obs[i].Digest = mu + 1 + uint64(k)
		}
	}
	for off := 0; off < len(obs); off += netsim.ReplayBatchSize {
		batches = append(batches, obs[off:min(off+netsim.ReplayBatchSize, len(obs))])
	}
	return batches, int64(len(obs)) * 10_000, cfg
}

// TestObserveBatchSteadyStateZeroAlloc is the zero-alloc bar of the
// wire-speed hot path, on one-path-at-a-time traffic (four paths in
// long runs) and on mesh-shaped traffic (2048 Zipf-ranked paths
// interleaved packet by packet): after warmup (path state created,
// scratch buffers grown, two Drain/Recycle round trips), feeding the
// collector allocates at most AllocsPerPktBudget per packet.
func TestObserveBatchSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	const npkts = 20_000
	workloads := []struct {
		name  string
		build func(testing.TB, int) ([][]netsim.Observation, int64, CollectorConfig)
	}{{"fig1", hotpathWorkload}, {"zipf", zipfHotpathWorkload}}
	for _, w := range workloads {
		batches, span, cfg := w.build(t, npkts)
		col, err := NewCollector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feed := func() {
			for _, b := range batches {
				for i := range b {
					b[i].TimeNS += span
				}
				col.ObserveBatch(b)
			}
		}
		// Each warmup round covers more feed passes than the
		// measurement will run, so every accumulator reaches its
		// steady-state capacity; the second Drain/Recycle round trip
		// leaves every path with both of its alternating sample
		// buffers at that capacity.
		for round := 0; round < 2; round++ {
			for i := 0; i < 8; i++ {
				feed()
			}
			samples, aggs := col.Drain()
			col.Recycle(samples, aggs)
		}

		const runs = 3
		allocs := testing.AllocsPerRun(runs, feed)
		perPkt := allocs / float64(npkts)
		t.Logf("%s: %.1f allocs/run over %d pkts = %.6f allocs/pkt", w.name, allocs, npkts, perPkt)
		if perPkt > AllocsPerPktBudget {
			t.Errorf("%s: steady-state allocations %.6f/pkt exceed budget %.4f", w.name, perPkt, AllocsPerPktBudget)
		}
	}
}

// TestRecycledSparesReferenceNothing: the outer slices Recycle keeps
// for the next Drain hold no receipt, so they pin none of the record
// buffers of the epoch they carried — also after the terminal
// CloseEpoch, which no later drain overwrites.
func TestRecycledSparesReferenceNothing(t *testing.T) {
	batches, span, cfg := hotpathWorkload(t, 20_000)
	cfg.Aggregation.CutRate = 0.001 // aggregates every ~1000 packets, not every ~100k
	col, err := NewCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(passes int) {
		for range passes {
			for _, b := range batches {
				for i := range b {
					b[i].TimeNS += span
				}
				col.ObserveBatch(b)
			}
		}
	}
	empty := func(when string) {
		t.Helper()
		if cap(col.spareSamples) == 0 || cap(col.spareAggs) == 0 {
			t.Fatalf("%s: no spares kept", when)
		}
		for i, s := range col.spareSamples[:cap(col.spareSamples)] {
			if s.Samples != nil || s.Path != (receipt.PathID{}) {
				t.Fatalf("%s: spare sample slot %d still holds %d records of %v", when, i, len(s.Samples), s.Path)
			}
		}
		for i, a := range col.spareAggs[:cap(col.spareAggs)] {
			if a.AggTrans != nil || a.Path != (receipt.PathID{}) {
				t.Fatalf("%s: spare aggregate slot %d still holds %d AggTrans records of %v", when, i, len(a.AggTrans), a.Path)
			}
		}
	}
	feed(2)
	_, samples, aggs := col.RotateInterval()
	if len(samples) == 0 || len(aggs) == 0 {
		t.Fatalf("the first epoch sealed %d sample and %d aggregate receipts", len(samples), len(aggs))
	}
	col.Recycle(samples, aggs)
	empty("after RotateInterval")
	feed(2)
	_, samples, aggs = col.CloseEpoch()
	col.Recycle(samples, aggs)
	empty("after CloseEpoch")
}

// TestFlushAllocsFlatInPaths: the terminal Flush sizes its outputs once
// and every path's partitioner appends into them, so flushing N paths
// that each hold an open aggregate costs a handful of allocations
// beyond the receipts' own AggTrans windows, whatever N is.
func TestFlushAllocsFlatInPaths(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector include its own")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// extra flushes n one-packet paths and returns the allocations that
	// are not an AggTrans window, the least of three flushes.
	extra := func(n int) uint64 {
		keys := netsim.WideKeys(n)
		prefixes := make([]packet.Prefix, 0, 2*n)
		for _, k := range keys {
			prefixes = append(prefixes, k.Src, k.Dst)
		}
		cfg := evictCfg(packet.NewTable(prefixes), 0)
		pkts := make([]packet.Packet, n)
		obs := make([]netsim.Observation, n)
		for i, k := range keys {
			pkts[i] = packet.Packet{Src: k.Src.Addr, Dst: k.Dst.Addr, IPID: uint16(i)}
			obs[i] = netsim.Observation{Pkt: &pkts[i], Digest: hashing.Mix64(uint64(i) + 1), TimeNS: int64(i) * 1000}
		}
		best := uint64(math.MaxUint64)
		for range 3 {
			col, err := NewCollector(cfg)
			if err != nil {
				t.Fatal(err)
			}
			col.ObserveBatch(obs)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, aggs := col.Flush()
			runtime.ReadMemStats(&after)
			if len(aggs) != n {
				t.Fatalf("%d paths flushed %d aggregates, want one each", n, len(aggs))
			}
			windows := uint64(0)
			for _, a := range aggs {
				if a.AggTrans != nil {
					windows++
				}
			}
			if got := after.Mallocs - before.Mallocs - windows; got < best {
				best = got
			}
		}
		return best
	}
	small, large := extra(64), extra(4096)
	t.Logf("allocations beyond AggTrans: %d flushing 64 paths, %d flushing 4096", small, large)
	if large > small+1 || large > 4 {
		t.Fatalf("flushing 4096 paths costs %d allocations beyond AggTrans, 64 paths %d: want a few, flat in the path count", large, small)
	}
}
