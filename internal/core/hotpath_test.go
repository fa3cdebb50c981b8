package core

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"vpm/internal/aggregation"
	"vpm/internal/hashing"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/sampling"
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
		if cap(col.spare.samples) == 0 || cap(col.spare.aggs) == 0 {
			t.Fatalf("%s: no spares kept", when)
		}
		for i, s := range col.spare.samples[:cap(col.spare.samples)] {
			if s.Samples != nil || s.Path != (receipt.PathID{}) {
				t.Fatalf("%s: spare sample slot %d still holds %d records of %v", when, i, len(s.Samples), s.Path)
			}
		}
		for i, a := range col.spare.aggs[:cap(col.spare.aggs)] {
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

// TestFlushAllocsFlatInPaths: the terminal Flush sizes its logs once
// and cuts every receipt — AggTrans windows included — from one slab per
// kind, so flushing N paths that each hold an open aggregate costs a
// handful of allocations, whatever N is.
func TestFlushAllocsFlatInPaths(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector include its own")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// allocs flushes n one-packet paths and returns its allocations, the
	// least of three flushes.
	allocs := func(n int) uint64 {
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
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return best
	}
	small, large := allocs(64), allocs(4096)
	t.Logf("allocations: %d flushing 64 paths, %d flushing 4096", small, large)
	if large > small+1 || large > 8 {
		t.Fatalf("flushing 4096 paths costs %d allocations, 64 paths %d: want a few, flat in the path count", large, small)
	}
}

// TestMemoryMatchesLiveHeap holds Collector.Memory to what a collector
// fed n paths really keeps on the heap, and the per-path state to
// §7.1's order: at 4 096 and 65 536 paths, the reported bytes are
// within 10 % of the live-heap growth, and what a path costs beyond its
// record buffer — the hot entry, the PathID, the buffer's
// header and the index slots — is at most 128 B.
func TestMemoryMatchesLiveHeap(t *testing.T) {
	for _, n := range []int{4096, 65536} {
		keys := netsim.WideKeys(n)
		prefixes := make([]packet.Prefix, 0, 2*n)
		for _, k := range keys {
			prefixes = append(prefixes, k.Src, k.Dst)
		}
		cfg := evictCfg(packet.NewTable(prefixes), 0)
		const perPath = 3
		pkts := make([]packet.Packet, n)
		obs := make([]netsim.Observation, 0, perPath*n)
		for i, k := range keys {
			pkts[i] = packet.Packet{Src: k.Src.Addr, Dst: k.Dst.Addr}
		}
		for r := range perPath {
			for i := range pkts {
				j := r*n + i
				obs = append(obs, netsim.Observation{Pkt: &pkts[i], Digest: hashing.Mix64(uint64(j) + 1), TimeNS: int64(j) * 1000})
			}
		}
		before := liveHeap()
		col, err := NewCollector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(obs); off += netsim.ReplayBatchSize {
			col.ObserveBatch(obs[off:min(off+netsim.ReplayBatchSize, len(obs))])
		}
		held := float64(liveHeap() - before)
		m := col.Memory()
		runtime.KeepAlive(col)
		runtime.KeepAlive(obs)
		reported := float64(m.MonitoringCacheBytes + m.RecordBufferBytes + m.DispatchBytes)
		state := (held - float64(m.RecordBufferBytes+m.DispatchBytes)) / float64(n)
		t.Logf("%d paths: %.0f B live, Memory reports %.0f B (%+.1f %%); %.1f B per path beyond its records (reported %.1f)",
			n, held, reported, 100*(reported-held)/held, state, float64(m.MonitoringCacheBytes)/float64(n))
		if m.ActivePaths != n {
			t.Fatalf("%d active paths, want %d", m.ActivePaths, n)
		}
		if reported < 0.9*held || reported > 1.1*held {
			t.Errorf("%d paths: Memory reports %.0f B, the live heap grew %.0f B: want within 10 %%", n, reported, held)
		}
		if state > 128 {
			t.Errorf("%d paths: %.1f B of state per path beyond its record buffer, want at most 128", n, state)
		}
	}
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRecordBufferIsBounded: a path's one record buffer holds its
// pre-marker buffer and its J window, not its history. Cut-free runs far
// longer than J, fed 4096 at a time, must leave the buffer — and the
// array behind it — sized by the marker spacing and J, not by the run
// or the stream.
func TestRecordBufferIsBounded(t *testing.T) {
	key := netsim.WideKeys(1)[0]
	cfg := evictCfg(packet.NewTable([]packet.Prefix{key.Src, key.Dst}), 0)
	cfg.Sampling = sampling.Config{MarkerRate: 0.2, SampleRate: 0.01}
	cfg.Aggregation = aggregation.Config{CutRate: 0.0001, WindowNS: 10_000} // ~10 records at 1 µs
	col, err := NewCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pkt := packet.Packet{Src: key.Src.Addr, Dst: key.Dst.Addr}
	obs := make([]netsim.Observation, 50_000)
	for i := range obs {
		obs[i] = netsim.Observation{Pkt: &pkt, Digest: hashing.Mix64(uint64(i) + 1), TimeNS: int64(i) * 1000}
	}
	for off := 0; off < len(obs); off += netsim.ReplayBatchSize {
		col.ObserveBatch(obs[off:min(off+netsim.ReplayBatchSize, len(obs))])
		buf, h := col.recs[0], col.hot[0]
		if n := len(buf) - int(h.winHead); n > 15 {
			t.Fatalf("after %d observations the J window holds %d records", off, n)
		}
		if c := cap(buf); c > 256 {
			t.Fatalf("after %d observations the record buffer's array holds %d records for a %d-record pre-marker buffer",
				off, c, len(buf)-int(h.markStart))
		}
	}
}
