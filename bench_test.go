// Benchmarks regenerating every table and figure of the paper's
// evaluation (docs/PAPER-MAP.md's Evaluation index), plus ablations of
// the protocol's parameters. Each benchmark runs the corresponding
// experiment at a reduced scale and reports the headline quantity via
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as a smoke
// run of the whole evaluation; TestPaperResults (paper_test.go) holds
// the results at full scale as golden files. The
// ObserveBatch* benchmarks are the collector's zero-alloc gate (CI reads
// it), and BenchmarkObserveMesh / TestObserveMeshAllocs measure and gate
// collection in the clos-zipf shape; the pipeline's speed numbers come
// from `go run ./bench`, not from here.
package vpm

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"

	"vpm/internal/core"
	"vpm/internal/experiments"
	"vpm/internal/hashing"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
	"vpm/internal/seqdetect"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// benchCfg is the reduced scale used by benchmarks.
func benchCfg() experiments.Config {
	return experiments.Config{Seed: 9, RatePPS: 100000, DurationNS: int64(200e6)}
}

// BenchmarkFig2DelayAccuracy regenerates Figure 2 (E1): delay accuracy
// vs sampling rate under loss. Reported metric: accuracy in ms at the
// paper's headline cell (1% sampling, 25% loss).
func BenchmarkFig2DelayAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.SampleRatePct == 1 && r.LossPct == 25 {
				b.ReportMetric(r.AccuracyMS, "ms-accuracy@1%,25%loss")
			}
		}
	}
}

// BenchmarkFig3LossGranularity regenerates Figure 3 (E2): loss
// granularity vs loss rate. Reported metric: granularity degradation
// factor at 25% loss.
func BenchmarkFig3LossGranularity(b *testing.B) {
	cfg := benchCfg()
	cfg.DurationNS = int64(500e6)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var base, mid float64
		for _, r := range rows {
			if r.LossPct == 0 {
				base = r.GranularitySec
			}
			if r.LossPct == 25 {
				mid = r.GranularitySec
			}
		}
		if base > 0 {
			b.ReportMetric(mid/base, "granularity-x@25%loss")
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (E3): the partition algebra.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Table1(); len(rows) != 5 {
			b.Fatal("table 1 incomplete")
		}
	}
}

// BenchmarkMemoryOverhead regenerates the §7.1 memory table (E4).
func BenchmarkMemoryOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.MemoryOverhead()
		b.ReportMetric(float64(rows[0].Ours.MonitoringCacheBytes)/1e6, "MB-cache@100kpaths")
	}
}

// BenchmarkBandwidthOverhead regenerates the §7.1 bandwidth numbers
// (E5). Reported metric: measured receipt overhead in percent on the
// Figure 1 path.
func BenchmarkBandwidthOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.BandwidthOverhead(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].MeasuredPct, "%-receipt-overhead")
	}
}

// BenchmarkForwardingBaseline and BenchmarkForwardingWithVPM
// regenerate the §7.1 Click throughput experiment (E6) as proper
// testing.B loops over the identical per-packet work.
func BenchmarkForwardingBaseline(b *testing.B) {
	pkts, wires := forwardingWorkload(b)
	var scratch packet.Packet
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := wires[i%len(pkts)]
		if err := scratch.Parse(w); err != nil {
			b.Fatal(err)
		}
		scratch.TTL--
	}
}

// BenchmarkForwardingWithVPM is the same loop with the deployed
// collector attached through its single-packet Observe shim — the
// difference is VPM's true data-plane cost.
func BenchmarkForwardingWithVPM(b *testing.B) {
	pkts, wires := forwardingWorkload(b)
	col, err := core.NewCollector(benchCollectorConfig(benchTraceConfig().Table()))
	if err != nil {
		b.Fatal(err)
	}
	var scratch packet.Packet
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := wires[i%len(pkts)]
		if err := scratch.Parse(w); err != nil {
			b.Fatal(err)
		}
		scratch.TTL--
		col.Observe(&scratch, scratch.Digest(1), int64(i)*10_000)
		if i%1_000_000 == 999_999 {
			col.Drain()
		}
	}
}

func benchTraceConfig() trace.Config {
	return trace.Config{
		Seed:       3,
		DurationNS: int64(100e6),
		Paths:      []trace.PathSpec{trace.DefaultPath(100000)},
	}
}

func forwardingWorkload(b *testing.B) ([]packet.Packet, [][]byte) {
	b.Helper()
	pkts, err := trace.Generate(benchTraceConfig())
	if err != nil {
		b.Fatal(err)
	}
	wires := make([][]byte, len(pkts))
	for i := range pkts {
		wires[i] = pkts[i].Serialize(nil)
	}
	return pkts, wires
}

// collectorWorkload materializes the Fig1 foreground workload as a
// ready-to-feed observation stream (packets, digests, arrival-ordered
// timestamps 10 µs apart).
func collectorWorkload(b *testing.B) []netsim.Observation {
	b.Helper()
	pkts, err := trace.Generate(benchTraceConfig())
	if err != nil {
		b.Fatal(err)
	}
	workload := make([]netsim.Observation, len(pkts))
	for i := range pkts {
		workload[i] = netsim.Observation{Pkt: &pkts[i], Digest: pkts[i].Digest(1), TimeNS: int64(i) * 10_000}
	}
	return workload
}

// shiftWorkload advances every observation timestamp by span — feeding
// the same workload repeatedly must keep HOP clocks monotonic, or the
// partitioner's reordering window sees time restart and never evicts.
func shiftWorkload(w []netsim.Observation, span int64) {
	for i := range w {
		w[i].TimeNS += span
	}
}

// benchCollectorConfig is the standalone-collector configuration the
// collector benchmarks share (HOP 4 with an identity PathID and the
// default protocol parameters).
func benchCollectorConfig(table *packet.Table) core.CollectorConfig {
	return core.CollectorConfig{
		HOP:   4,
		Table: table,
		PathID: func(key packet.PathKey) receipt.PathID {
			return receipt.PathID{Key: key}
		},
		Sampling:    core.DefaultSamplingConfig(),
		Aggregation: core.DefaultAggregationConfig(),
	}
}

// observeSteadyState drives a collector benchmark with the
// steady-state protocol of core's TestObserveBatchSteadyStateZeroAlloc:
// warmup passes grow every accumulator and prime the recycled buffers,
// timestamps shift forward by one workload span per pass (so the
// reordering window keeps evicting instead of accumulating a restarted
// clock), and each iteration's Drain hands its buffers back via
// Recycle. Only the feed is timed; the allocs/pkt metric meters the
// whole cycle. Returns allocations per packet over the measured
// iterations.
func observeSteadyState(b *testing.B, col *core.Collector, workload []netsim.Observation, feed func()) float64 {
	b.Helper()
	span := int64(len(workload)) * 10_000 // one feed pass
	for i := 0; i < 3; i++ {
		shiftWorkload(workload, span)
		feed()
		samples, aggs := col.Drain()
		col.Recycle(samples, aggs)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		shiftWorkload(workload, span)
		b.StartTimer()
		feed()
		b.StopTimer()
		samples, aggs := col.Drain()
		col.Recycle(samples, aggs)
		b.StartTimer()
	}
	runtime.ReadMemStats(&after)
	allocsPerPkt := float64(after.Mallocs-before.Mallocs) / (float64(b.N) * float64(len(workload)))
	b.ReportMetric(allocsPerPkt, "allocs/pkt")
	reportThroughput(b, len(workload))
	return allocsPerPkt
}

// BenchmarkObserveBatch measures the collector every deployment runs on
// the Fig1 workload. The acceptance bar: steady-state allocations
// within core.AllocsPerPktBudget — the CI zero-alloc gate fails the
// build when the observe → drain → recycle cycle starts allocating
// again.
func BenchmarkObserveBatch(b *testing.B) {
	observeBatchWithinBudget(b, benchCollectorConfig(benchTraceConfig().Table()), collectorWorkload(b))
}

// observeBatchWithinBudget runs the steady-state cycle on the collector
// deployments run, fed in netsim.ReplayBatchSize calls, and fails the
// benchmark when it allocates beyond core.AllocsPerPktBudget.
func observeBatchWithinBudget(b *testing.B, cfg core.CollectorConfig, workload []netsim.Observation) {
	b.Helper()
	col, err := core.NewCollector(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const batch = netsim.ReplayBatchSize
	allocsPerPkt := observeSteadyState(b, col, workload, func() {
		for off := 0; off < len(workload); off += batch {
			col.ObserveBatch(workload[off:min(off+batch, len(workload))])
		}
	})
	if allocsPerPkt > core.AllocsPerPktBudget {
		b.Fatalf("steady-state allocations %.6f/pkt exceed budget %.4f",
			allocsPerPkt, core.AllocsPerPktBudget)
	}
}

// zipfCollectorWorkload is the mesh-shaped counterpart of
// collectorWorkload: 40 960 observations, 10 µs apart, each on a
// Zipf(1.01) draw over netsim.WideKeys(2048) — a few hundred paths
// interleaved packet by packet, where the Fig1 workload is one path.
// Every key's first packet carries a digest in the marker band (above
// µ, below the cut threshold), so with the digests repeating pass after
// pass each path's pre-marker buffer still empties once a pass and the
// cycle has a steady state. ranks[i] is observation i's key.
func zipfCollectorWorkload(b *testing.B) (workload []netsim.Observation, ranks []int, table *packet.Table) {
	b.Helper()
	const nKeys, n = 2048, 10 * netsim.ReplayBatchSize
	keys := netsim.WideKeys(nKeys)
	prefixes := make([]packet.Prefix, 0, 2*nKeys)
	cdf := make([]float64, nKeys)
	sum := 0.0
	for r, k := range keys {
		prefixes = append(prefixes, k.Src, k.Dst)
		sum += math.Pow(float64(r+1), -1.01)
		cdf[r] = sum
	}
	mu := hashing.ThresholdForRate(core.DefaultSamplingConfig().MarkerRate)
	if delta := hashing.ThresholdForRate(core.DefaultAggregationConfig().CutRate); mu+nKeys >= delta {
		b.Fatalf("no marker band between µ %#x and δ %#x", mu, delta)
	}
	rng := stats.NewRNG(11)
	seen := make([]bool, nKeys)
	pkts := make([]packet.Packet, n)
	workload = make([]netsim.Observation, n)
	ranks = make([]int, n)
	for i := range pkts {
		k := min(sort.SearchFloat64s(cdf, rng.Float64()*sum), nKeys-1)
		ranks[i] = k
		pkts[i] = packet.Packet{Src: keys[k].Src.Addr, Dst: keys[k].Dst.Addr, IPID: uint16(i)}
		workload[i] = netsim.Observation{Pkt: &pkts[i], Digest: hashing.Mix64(uint64(i) + 1), TimeNS: int64(i) * 10_000}
		if !seen[k] {
			seen[k] = true
			workload[i].Digest = mu + 1 + uint64(k)
		}
	}
	return workload, ranks, packet.NewTable(prefixes)
}

// dispatchVisits counts, for a collector fed ranks in
// netsim.ReplayBatchSize calls, the path-state visits of a dispatch that
// groups each 256-observation sub-batch by path (the sub-batch's
// distinct paths — what core.Collector does, pinned to its own
// counter by core's TestGroupByPathMatchesOracle) and of one that
// run-length-encodes it (its runs of consecutive same-path
// observations — what the dispatch before it did).
func dispatchVisits(ranks []int) (grouped, runs int) {
	const subBatch = 256
	for off := 0; off < len(ranks); off += netsim.ReplayBatchSize {
		call := ranks[off:min(off+netsim.ReplayBatchSize, len(ranks))]
		for sub := 0; sub < len(call); sub += subBatch {
			chunk := call[sub:min(sub+subBatch, len(call))]
			distinct := map[int]bool{}
			for i, k := range chunk {
				distinct[k] = true
				if i == 0 || chunk[i-1] != k {
					runs++
				}
			}
			grouped += len(distinct)
		}
	}
	return grouped, runs
}

// BenchmarkObserveBatchZipf is BenchmarkObserveBatch on
// mesh-shaped traffic: the same steady-state cycle and the same
// allocation bar, so the zero-alloc gate holds the dispatch's grouping
// scratch — not only the one-path fast path — to
// core.AllocsPerPktBudget. It also reports how often the dispatch
// visits a path's state per observation, beside what run-length
// encoding the same sub-batches would make.
func BenchmarkObserveBatchZipf(b *testing.B) {
	workload, ranks, table := zipfCollectorWorkload(b)
	observeBatchWithinBudget(b, benchCollectorConfig(table), workload)
	grouped, runs := dispatchVisits(ranks)
	b.ReportMetric(float64(grouped)/float64(len(ranks)), "visits/obs")
	b.ReportMetric(float64(runs)/float64(len(ranks)), "runs/obs")
}

// meshCollectWorld is the clos-zipf shape of collection, recorded once:
// every routed HOP of a Clos(8,4) mesh over netsim.WideKeys(4096), each
// HOP's observations of Zipf(1.01) traffic in arrival order, cut into
// epochs. BenchmarkObserveBatchZipf runs one recycled collector over
// 2048 keys; here there is a collector per HOP, fresh each pass, each
// meeting its paths for the first time and keeping every Drain as the
// windowed store keeps them — the cold per-path memory a mesh pays.
type meshCollectWorld struct {
	plan    *core.Plan
	streams map[receipt.HOPID][][]netsim.Observation // by HOP, then epoch
	obs     int
}

// meshObserver records a HOP's observations, every packet of a key
// standing for the key's canonical packet.
type meshObserver struct {
	keyPkts []packet.Packet
	keyOf   map[[8]byte]int
	obs     []netsim.Observation
}

func (o *meshObserver) Observe(pkt *packet.Packet, digest uint64, tNS int64) {
	o.ObserveBatch([]netsim.Observation{{Pkt: pkt, Digest: digest, TimeNS: tNS}})
}

func (o *meshObserver) ObserveBatch(batch []netsim.Observation) {
	for _, ob := range batch {
		k := o.keyOf[addrPair(ob.Pkt.Src, ob.Pkt.Dst)]
		o.obs = append(o.obs, netsim.Observation{Pkt: &o.keyPkts[k], Digest: ob.Digest, TimeNS: ob.TimeNS})
	}
}

func addrPair(src, dst [4]byte) (pair [8]byte) {
	copy(pair[:4], src[:])
	copy(pair[4:], dst[:])
	return pair
}

// newMeshCollectWorld simulates epochs × intervalNS of Zipf(1.01)
// traffic at ratePPS over the mesh and records what every HOP sees.
func newMeshCollectWorld(tb testing.TB, epochs int, intervalNS int64, ratePPS float64) *meshCollectWorld {
	tb.Helper()
	keys := netsim.WideKeys(4096)
	topo := netsim.ClosTopology(5001, 8, 4, keys)
	prefixes := make([]packet.Prefix, 0, 2*len(keys))
	keyPkts := make([]packet.Packet, len(keys))
	keyOf := make(map[[8]byte]int, len(keys))
	cdf := make([]float64, len(keys))
	sum := 0.0
	for r, k := range keys {
		prefixes = append(prefixes, k.Src, k.Dst)
		keyPkts[r] = packet.Packet{Src: k.Src.Addr, Dst: k.Dst.Addr}
		keyOf[addrPair(k.Src.Addr, k.Dst.Addr)] = r
		sum += math.Pow(float64(r+1), -1.01)
		cdf[r] = sum
	}
	table := packet.NewTable(prefixes)
	dc := core.DefaultDeployConfig()
	dc.MarkerRate, dc.Default.AggRate = 0.01, 0.005 // the clos-zipf workload's rates
	plan, err := core.NewTopoPlan(topo, table, dc)
	if err != nil {
		tb.Fatal(err)
	}
	runner, err := netsim.NewTopoRunner(topo, table)
	if err != nil {
		tb.Fatal(err)
	}
	recorders := make(map[receipt.HOPID]*meshObserver)
	observers := make(map[receipt.HOPID]netsim.Observer)
	for _, h := range plan.HOPs() {
		recorders[h] = &meshObserver{keyPkts: keyPkts, keyOf: keyOf}
		observers[h] = recorders[h]
	}
	rng := stats.NewRNG(7001)
	sent := make([]uint32, len(keys))
	gapNS := 1e9 / ratePPS
	next := int64(0)
	for e := 1; e <= epochs; e++ {
		horizon := int64(e) * intervalNS
		var pkts []packet.Packet
		for ; next < horizon; next += 1 + int64(rng.ExpFloat64()*gapNS) {
			k := min(sort.SearchFloat64s(cdf, rng.Float64()*sum), len(keys)-1)
			n := sent[k]
			sent[k]++
			pkts = append(pkts, packet.Packet{
				TotalLen: 576, IPID: uint16(n), TTL: 64, Proto: packet.ProtoTCP,
				Src: keys[k].Src.Addr, Dst: keys[k].Dst.Addr, SrcPort: uint16(1024 + n>>16), DstPort: 443,
				Seq: rng.Uint32(), SentAt: next,
			})
		}
		if _, err := runner.RunSegment(pkts, observers, horizon); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := runner.RunSegment(nil, observers, 1<<62); err != nil {
		tb.Fatal(err)
	}
	w := &meshCollectWorld{plan: plan, streams: make(map[receipt.HOPID][][]netsim.Observation)}
	for h, rec := range recorders {
		byEpoch := make([][]netsim.Observation, epochs)
		for _, ob := range rec.obs {
			e := min(int(max(ob.TimeNS, 0)/intervalNS), epochs-1)
			byEpoch[e] = append(byEpoch[e], ob)
		}
		w.streams[h] = byEpoch
		w.obs += len(rec.obs)
	}
	return w
}

// meshDrain is one Drain of one collector, kept.
type meshDrain struct {
	samples []receipt.SampleReceipt
	aggs    []receipt.AggReceipt
}

// replay feeds dep's fresh collectors every epoch HOP by HOP in
// netsim.ReplayBatchSize batches, draining every collector at the end of
// each epoch and keeping what it drains, as the windowed store does. It
// returns the drains and the allocations of the replay and the drains.
func (w *meshCollectWorld) replay(dep *core.Deployment) (kept []meshDrain, allocs uint64) {
	hops := w.plan.HOPs()
	epochs := len(w.streams[hops[0]])
	kept = make([]meshDrain, 0, epochs*len(hops))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for e := range epochs {
		for _, h := range hops {
			col, stream := dep.Collectors[h], w.streams[h][e]
			for off := 0; off < len(stream); off += netsim.ReplayBatchSize {
				col.ObserveBatch(stream[off:min(off+netsim.ReplayBatchSize, len(stream))])
			}
			samples, aggs := col.Drain()
			kept = append(kept, meshDrain{samples, aggs})
		}
	}
	runtime.ReadMemStats(&after)
	return kept, after.Mallocs - before.Mallocs
}

func (w *meshCollectWorld) deploy(tb testing.TB) *core.Deployment {
	tb.Helper()
	dep, err := w.plan.Deploy()
	if err != nil {
		tb.Fatal(err)
	}
	return dep
}

// liveBytesPerPath is what a deployment's collectors hold per active
// path beyond their fixed dispatch scratch, from the live heap.
func (w *meshCollectWorld) liveBytesPerPath(tb testing.TB) float64 {
	tb.Helper()
	base := liveHeapBytes()
	dep := w.deploy(tb)
	w.replay(dep)
	held := liveHeapBytes() - base
	paths, fixed := 0, 0
	for _, col := range dep.Collectors {
		m := col.Memory()
		paths += m.ActivePaths
		fixed += m.DispatchBytes
	}
	runtime.KeepAlive(w) // the recorded streams were in base
	return (float64(held) - float64(fixed)) / float64(paths)
}

func liveHeapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkObserveMesh measures collection in the clos-zipf shape (see
// meshCollectWorld): ns/obs over the replay and its drains, allocs/obs,
// and the live bytes per active path the collectors hold beyond their
// fixed scratch. Speed numbers for a claim come from `go run ./bench`;
// this isolates the collector's share.
func BenchmarkObserveMesh(b *testing.B) {
	w := newMeshCollectWorld(b, 4, 250_000_000, 200_000)
	b.ResetTimer()
	b.StopTimer()
	var allocs uint64
	for range b.N {
		dep := w.deploy(b)
		b.StartTimer()
		_, a := w.replay(dep)
		b.StopTimer()
		allocs += a
	}
	obs := float64(b.N) * float64(w.obs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/obs, "ns/obs")
	b.ReportMetric(float64(allocs)/obs, "allocs/obs")
	b.ReportMetric(w.liveBytesPerPath(b), "live-B/path")
}

// meshParentAllocsPerObs is what TestObserveMeshAllocs measured on the
// collector this one replaced, which kept a heap object per path and
// two buffers per path that each drain handed away and the next epoch
// regrew.
const meshParentAllocsPerObs = 0.53708

// TestObserveMeshAllocs is the allocation gate of mesh collection: on
// the clos-zipf shape, a pass of fresh collectors whose drains are all
// kept allocates at most half what the collector it replaced did per
// observation. It is a ratio of counts in one process, not a stopwatch.
func TestObserveMeshAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector include its own")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := newMeshCollectWorld(t, 3, 100_000_000, 200_000)
	_, allocs := w.replay(w.deploy(t))
	perObs := float64(allocs) / float64(w.obs)
	t.Logf("%d observations over %d HOPs: %.5f allocations each (the replaced collector: %.5f)",
		w.obs, len(w.plan.HOPs()), perObs, meshParentAllocsPerObs)
	if perObs > meshParentAllocsPerObs/2 {
		t.Fatalf("mesh collection allocates %.5f per observation, want at most half of %.5f", perObs, meshParentAllocsPerObs)
	}
}

// reportThroughput converts a per-iteration packet count into pkts/s
// and ns/pkt metrics.
func reportThroughput(b *testing.B, pktsPerIter int) {
	total := float64(b.N) * float64(pktsPerIter)
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(total/secs, "pkts/s")
		b.ReportMetric(secs*1e9/total, "ns/pkt")
	}
}

// meshVerifyWorld is a small recorded mesh stream for the verify-side
// benchmark: a Clos(4,2) fabric (48 HOPs, two ECMP routes per key),
// 256 keys whose rates follow Zipf(1.01) — a busy head and a long tail
// of keys with a handful of packets, where verification is per-key
// overhead — rotated into 8 epochs of 50 ms and recorded as each HOP
// sealed them.
type meshVerifyWorld struct {
	dep    *core.Deployment
	hops   []receipt.HOPID
	sealed [][]meshSealed // by epoch, HOPs ascending
	// sequential, when set, arms the verifier's SPRT arm.
	sequential *seqdetect.Config
}

type meshSealed struct {
	hop     receipt.HOPID
	samples []receipt.SampleReceipt
	aggs    []receipt.AggReceipt
}

func newMeshVerifyWorld(tb testing.TB) *meshVerifyWorld {
	tb.Helper()
	const (
		nKeys      = 256
		epochs     = 8
		intervalNS = int64(50e6)
		ratePPS    = 60000
	)
	keys := netsim.WideKeys(nKeys)
	topo := netsim.ClosTopology(17, 4, 2, keys)
	sum := 0.0
	for r := range keys {
		sum += math.Pow(float64(r+1), -1.01)
	}
	tc := trace.Config{Seed: 23, DurationNS: epochs * intervalNS}
	for r, k := range keys {
		tc.Paths = append(tc.Paths, trace.PathSpec{
			SrcPrefix:    k.Src,
			DstPrefix:    k.Dst,
			RatePPS:      ratePPS * math.Pow(float64(r+1), -1.01) / sum,
			ActiveFlows:  4,
			MeanFlowPkts: 20,
			UDPFraction:  0.2,
		})
	}
	pkts, err := trace.Generate(tc)
	if err != nil {
		tb.Fatal(err)
	}
	dc := core.DefaultDeployConfig()
	dc.MarkerRate = 0.01
	dc.Default.AggRate = 0.005
	dep, err := core.NewTopoDeployment(topo, tc.Table(), dc)
	if err != nil {
		tb.Fatal(err)
	}
	w := &meshVerifyWorld{dep: dep, hops: dep.HOPs()}
	// The simulator's replay workers seal distinct HOPs concurrently.
	var mu sync.Mutex
	driver, err := core.NewEpochDriver(dep, intervalNS, func(hop receipt.HOPID, epoch core.EpochID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
		mu.Lock()
		defer mu.Unlock()
		for int(epoch) >= len(w.sealed) {
			w.sealed = append(w.sealed, nil)
		}
		w.sealed[epoch] = append(w.sealed[epoch], meshSealed{hop, samples, aggs})
	})
	if err != nil {
		tb.Fatal(err)
	}
	runner, err := netsim.NewTopoRunner(topo, tc.Table())
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := runner.Run(pkts, driver.Observers()); err != nil {
		tb.Fatal(err)
	}
	driver.Close()
	for _, epoch := range w.sealed {
		sort.Slice(epoch, func(i, j int) bool { return epoch[i].hop < epoch[j].hop })
	}
	return w
}

// verify runs the recorded stream through a fresh window the way the
// engine's step does — ingest an epoch's seals, verify what became
// ready, evict — and returns the (key, route) reports and link checks
// it produced.
func (w *meshVerifyWorld) verify(tb testing.TB) (keyEpochs, linkChecks int) {
	win, err := core.NewWindowedStore(w.hops, 2)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := w.dep.VerifierConfig()
	cfg.Sequential = w.sequential
	rolling := core.NewRollingVerifier(core.Layout{}, cfg, win, nil, 0.95)
	rolling.SetKeyLayouts(w.dep.KeyLayouts())
	step := func() {
		reps, err := rolling.VerifyReady()
		if err != nil {
			tb.Fatal(err)
		}
		for _, rep := range reps {
			keyEpochs += len(rep.Keys)
			for _, kr := range rep.Keys {
				linkChecks += len(kr.Links)
			}
		}
		win.Evict()
	}
	for e, epoch := range w.sealed {
		for _, se := range epoch {
			if err := win.IngestSealed(se.hop, core.EpochID(e), se.samples, se.aggs); err != nil {
				tb.Fatal(err)
			}
		}
		step()
	}
	win.FinishStream()
	step()
	return keyEpochs, linkChecks
}

// measureAllocs runs the stream n times after one warm-up pass and
// returns the heap objects allocated per (key, route) report, ingest
// and index included.
func (w *meshVerifyWorld) measureAllocs(tb testing.TB, n int) float64 {
	w.verify(tb)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	keyEpochs := 0
	for i := 0; i < n; i++ {
		ke, _ := w.verify(tb)
		keyEpochs += ke
	}
	runtime.ReadMemStats(&after)
	if keyEpochs == 0 {
		tb.Fatal("mesh stream verified no (key, route)")
	}
	return float64(after.Mallocs-before.Mallocs) / float64(keyEpochs)
}

// BenchmarkVerifyEpochMesh is the verify side's working benchmark: the
// per-link-check cost and the allocations per (key, route) report of
// ingest → index → VerifyEpoch → evict on a mesh whose keys are mostly
// idle. The judged numbers are `go run ./bench`'s
// core.verify.us_per_link_check and allocs_per_key_epoch; this is for
// use while working on the store and the kernel.
func BenchmarkVerifyEpochMesh(b *testing.B) {
	benchmarkVerifyEpochMesh(b, newMeshVerifyWorld(b), core.VerifyAllocsPerKeyEpochBudget)
}

// BenchmarkVerifyEpochMeshSequential is BenchmarkVerifyEpochMesh with
// the SPRT arm on: every pass is a fresh verifier, so it also pays for
// creating each detector once.
func BenchmarkVerifyEpochMeshSequential(b *testing.B) {
	w := newMeshVerifyWorld(b)
	w.sequential = new(seqdetect.Config)
	benchmarkVerifyEpochMesh(b, w, core.SequentialVerifyAllocsPerKeyEpochBudget)
}

func benchmarkVerifyEpochMesh(b *testing.B, w *meshVerifyWorld, budget float64) {
	_, links := w.verify(b)
	if links == 0 {
		b.Fatal("mesh stream produced no link checks")
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.verify(b)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(links)), "ns/link-check")
	allocs := w.measureAllocs(b, 1)
	b.ReportMetric(allocs, "allocs/key-epoch")
	if allocs > budget {
		b.Fatalf("%.2f allocations per (key, route) report exceed budget %v", allocs, budget)
	}
}

// TestVerifyAllocsWithinBudget holds the verify side — ingest, index,
// VerifyEpoch, evict — to core.VerifyAllocsPerKeyEpochBudget on the
// benchmark's stream (not under -race, which adds about one allocation
// per report, a varying amount).
func TestVerifyAllocsWithinBudget(t *testing.T) {
	testVerifyAllocsWithinBudget(t, newMeshVerifyWorld(t), core.VerifyAllocsPerKeyEpochBudget)
}

// TestSequentialVerifyAllocsWithinBudget is TestVerifyAllocsWithinBudget
// with the SPRT arm on, held to core.SequentialVerifyAllocsPerKeyEpochBudget.
func TestSequentialVerifyAllocsWithinBudget(t *testing.T) {
	w := newMeshVerifyWorld(t)
	w.sequential = new(seqdetect.Config)
	testVerifyAllocsWithinBudget(t, w, core.SequentialVerifyAllocsPerKeyEpochBudget)
}

func testVerifyAllocsWithinBudget(t *testing.T, w *meshVerifyWorld, budget float64) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation measurement")
	}
	allocs := w.measureAllocs(t, 2)
	t.Logf("%.2f allocations per (key, route) report", allocs)
	if allocs > budget {
		t.Fatalf("%.2f allocations per (key, route) report exceed budget %v", allocs, budget)
	}
}

// BenchmarkVerifiability regenerates the §7.2 verifiability numbers
// (E7). Reported metric: verification accuracy in ms when the witness
// samples at 0.1%.
func BenchmarkVerifiability(b *testing.B) {
	cfg := benchCfg()
	cfg.DurationNS = int64(500e6)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Verifiability(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.NRatePct == 0.1 {
				b.ReportMetric(r.VerifyMS, "ms-verify@0.1%witness")
			}
		}
	}
}

// BenchmarkAttacks regenerates the §3 attack ablation (E8). Reported
// metric: how much loss the TS++ bias attack hides, in percentage
// points.
func BenchmarkAttacks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Attacks(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Protocol == "TS++" {
				b.ReportMetric(r.TrueLossPct-r.EstLossPct, "pct-loss-hidden-by-TS++bias")
			}
		}
	}
}

// BenchmarkAblationMarkerRate sweeps the marker rate µ (an ablation
// beside docs/PAPER-MAP.md's Evaluation index): more frequent markers shrink the bias-resistance buffer
// but add always-sampled marker traffic. Reported metric: sampler
// temp-buffer high-water mark in entries.
func BenchmarkAblationMarkerRate(b *testing.B) {
	for _, markerRate := range []float64{0.0001, 0.001, 0.01} {
		b.Run(pct(markerRate), func(b *testing.B) {
			tc := benchTraceConfig()
			pkts, err := trace.Generate(tc)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				dc := core.DefaultDeployConfig()
				dc.MarkerRate = markerRate
				path := netsim.Fig1Path(5)
				dep, err := core.NewDeployment(path, tc.Table(), dc)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := path.Run(pkts, dep.Observers()); err != nil {
					b.Fatal(err)
				}
				dep.Finalize()
				b.ReportMetric(float64(dep.Collectors[4].Memory().TempBufferPeakEntries), "tempbuf-entries")
			}
		})
	}
}

// BenchmarkAblationPatchUp compares J = 0 (no AggTrans; the Difference
// Aggregator ++ behaviour) against the default window under
// reordering. Reported metric: phantom losses per run attributed by
// the verifier when nothing was actually dropped.
func BenchmarkAblationPatchUp(b *testing.B) {
	for _, window := range []int64{0, 2_000_000} {
		name := "J=0"
		if window > 0 {
			name = "J=2ms"
		}
		b.Run(name, func(b *testing.B) {
			tc := benchTraceConfig()
			pkts, err := trace.Generate(tc)
			if err != nil {
				b.Fatal(err)
			}
			key := packet.PathKey{Src: tc.Paths[0].SrcPrefix, Dst: tc.Paths[0].DstPrefix}
			for i := 0; i < b.N; i++ {
				dc := core.DefaultDeployConfig()
				dc.WindowNS = window
				dc.Default.AggRate = 0.001 // many aggregates -> many cut windows
				path := netsim.Fig1Path(6)
				dep, err := core.NewDeployment(path, tc.Table(), dc)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := path.Run(pkts, dep.Observers()); err != nil {
					b.Fatal(err)
				}
				dep.Finalize()
				v := dep.NewVerifier(key)
				rep, err := v.LossBetween(4, 5)
				if err != nil {
					b.Fatal(err)
				}
				// Per-pair absolute misalignment: a packet reordered
				// across a cut inflates one pair and deflates the
				// next, so the net sum hides it.
				var phantom int64
				for _, p := range rep.Pairs {
					if l := p.Lost(); l >= 0 {
						phantom += l
					} else {
						phantom -= l
					}
				}
				b.ReportMetric(float64(phantom), "phantom-losses")
			}
		})
	}
}

func pct(r float64) string {
	switch {
	case r >= 0.01:
		return "mu=1%"
	case r >= 0.001:
		return "mu=0.1%"
	default:
		return "mu=0.01%"
	}
}

// BenchmarkQuantileEstimation measures the verifier-side estimation
// cost for a realistic sample population.
func BenchmarkQuantileEstimation(b *testing.B) {
	delays := make([]float64, 5000)
	for i := range delays {
		delays[i] = float64(i%997) * 1e4
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := quantile.Quantiles(delays, quantile.DefaultQuantiles, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}
