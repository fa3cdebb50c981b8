package experiments

import (
	"fmt"
	"runtime"
	"time"

	"vpm/internal/core"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/streamagg"
	"vpm/internal/trace"
)

// ThroughputRow is one line of the collection-pipeline throughput
// experiment: packets per second through a HOP collector in a given
// configuration, plus the steady-state heap behavior of the full
// observe → drain → encode → recycle cycle. Mode "serial" is the
// reference Collector (single-packet Observe through the
// netsim.Observer interface); "sharded" is the batched
// ShardedCollector every deployment runs; "sharded-sketch" is the same
// pipeline with the streaming sketch backend thinning retained
// records. The JSON tags are the machine-readable schema
// cmd/vpm-bench -json emits, so the perf trajectory can be tracked
// across PRs in BENCH_*.json files.
type ThroughputRow struct {
	Mode       string  `json:"mode"`
	Packets    int     `json:"packets"`
	PktsPerSec float64 `json:"packets_per_sec"`
	NSPerPkt   float64 `json:"ns_per_packet"`
	// AllocsPerPkt and BytesPerPkt are heap allocations (count and
	// bytes) per packet across the measured steady-state passes,
	// including epoch drains, arena encoding and buffer recycling —
	// the whole pipeline, not just the observe path.
	AllocsPerPkt float64 `json:"allocs_per_packet"`
	BytesPerPkt  float64 `json:"bytes_per_packet"`
	// ReceiptBytesPerPkt is the encoded receipt stream's size per
	// observed packet — the §6 reporting-bandwidth figure as this
	// workload produces it.
	ReceiptBytesPerPkt float64 `json:"receipt_bytes_per_packet"`
}

// ThroughputBatchSize is the feed granularity of all collector
// throughput measurements (this experiment and the repo-root
// benchmarks) — netsim's replay batch size, so measured numbers
// reflect what the real pipeline delivers per ObserveBatch call.
const ThroughputBatchSize = netsim.ReplayBatchSize

// Warmup and measurement pass counts for the steady-state protocol:
// warmup passes grow every accumulator (path state, scratch buffers,
// recycled receipt slices, the encode arena) to its high-water mark,
// then the measured passes run on a quiet heap.
const (
	throughputWarmupPasses   = 3
	throughputMeasuredPasses = 5
)

// CollectorWorkload materializes a trace as a ready-to-feed
// observation stream (packets, digests, arrival-ordered timestamps)
// for collector throughput measurement. The repo-root benchmarks and
// the Throughput experiment share it so both measure the same
// workload shape.
func CollectorWorkload(tc trace.Config) ([]netsim.Observation, error) {
	pkts, err := trace.Generate(tc)
	if err != nil {
		return nil, err
	}
	workload := make([]netsim.Observation, len(pkts))
	for i := range pkts {
		workload[i] = netsim.Observation{Pkt: &pkts[i], Digest: pkts[i].Digest(1), TimeNS: int64(i) * 10_000}
	}
	return workload, nil
}

// ShiftWorkload advances every observation timestamp by span — feeding
// the same workload repeatedly must keep HOP clocks monotonic, or the
// partitioner's reordering window sees time restart and never evicts.
func ShiftWorkload(w []netsim.Observation, span int64) {
	for i := range w {
		w[i].TimeNS += span
	}
}

// WorkloadSpan returns the timestamp span one feed pass covers.
func WorkloadSpan(w []netsim.Observation) int64 { return int64(len(w)) * 10_000 }

// ThroughputCollectorConfig is the standalone-collector configuration
// the throughput measurements use (HOP 4 with an identity PathID and
// the default protocol parameters).
func ThroughputCollectorConfig(table *packet.Table) core.CollectorConfig {
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

// SketchCollectorConfig is ThroughputCollectorConfig with the
// streaming sketch backend at the standard benchmark thinning
// parameters (keep 1 in 4 sampled records exactly, summarize the rest).
func SketchCollectorConfig(table *packet.Table) core.CollectorConfig {
	cfg := ThroughputCollectorConfig(table)
	cfg.Backend = core.BackendSketch
	cfg.Sketch = streamagg.Config{
		KeepRate:    0.25,
		Salt:        0x5eed_cafe,
		MarkerRate:  cfg.Sampling.MarkerRate,
		SketchCells: 512,
		SketchSeed:  7,
	}
	return cfg
}

// throughputMetrics accumulates one configuration's measured passes.
type throughputMetrics struct {
	elapsed      time.Duration
	allocs       uint64
	bytes        uint64
	receiptBytes uint64
	packets      int
}

// runThroughput drives col through the steady-state measurement
// protocol: warmup feed+drain passes, then measured passes timing the
// observe path and metering heap allocations across the whole cycle
// (feed, drain, arena-encode, recycle). batch <= 0 selects the serial
// per-packet Observe feed.
func runThroughput(col core.PathCollector, workload []netsim.Observation, batch int) throughputMetrics {
	span := WorkloadSpan(workload)
	feed := func() {
		if batch <= 0 {
			var obs netsim.Observer = col
			for i := range workload {
				obs.Observe(workload[i].Pkt, workload[i].Digest, workload[i].TimeNS)
			}
			return
		}
		for off := 0; off < len(workload); off += batch {
			end := off + batch
			if end > len(workload) {
				end = len(workload)
			}
			col.ObserveBatch(workload[off:end])
		}
	}
	var arena receipt.Arena
	drainCycle := func() int {
		samples, aggs := col.Drain()
		arena.Reset()
		encoded := len(arena.Encode(samples, aggs))
		col.Recycle(samples, aggs)
		if pool := col.SketchPool(); pool != nil {
			for _, ps := range col.DrainSketches() {
				pool.Put(ps)
			}
		}
		return encoded
	}
	for i := 0; i < throughputWarmupPasses; i++ {
		ShiftWorkload(workload, span)
		feed()
		drainCycle()
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var m throughputMetrics
	for i := 0; i < throughputMeasuredPasses; i++ {
		ShiftWorkload(workload, span) // untimed: harness bookkeeping, not pipeline work
		start := time.Now()
		feed()
		m.elapsed += time.Since(start)
		m.receiptBytes += uint64(drainCycle())
	}
	runtime.ReadMemStats(&after)
	m.allocs = after.Mallocs - before.Mallocs
	m.bytes = after.TotalAlloc - before.TotalAlloc
	m.packets = len(workload) * throughputMeasuredPasses
	return m
}

// Throughput measures the collector data plane on the Fig1 foreground
// workload: the serial per-packet baseline, the batched pipeline, and
// the batched pipeline with the sketch backend.
func Throughput(cfg Config) ([]ThroughputRow, error) {
	cfg = cfg.Normalize()
	tc := trace.Config{
		Seed:       cfg.Seed + 7,
		DurationNS: cfg.DurationNS,
		Paths:      []trace.PathSpec{trace.DefaultPath(cfg.RatePPS)},
	}
	workload, err := CollectorWorkload(tc)
	if err != nil {
		return nil, err
	}

	var rows []ThroughputRow
	serial, err := core.NewCollector(ThroughputCollectorConfig(tc.Table()))
	if err != nil {
		return nil, err
	}
	rows = append(rows, throughputRow("serial", runThroughput(serial, workload, 0)))

	col, err := core.NewShardedCollector(ThroughputCollectorConfig(tc.Table()))
	if err != nil {
		return nil, err
	}
	rows = append(rows, throughputRow("sharded", runThroughput(col, workload, ThroughputBatchSize)))

	sk, err := core.NewShardedCollector(SketchCollectorConfig(tc.Table()))
	if err != nil {
		return nil, err
	}
	rows = append(rows, throughputRow("sharded-sketch", runThroughput(sk, workload, ThroughputBatchSize)))
	return rows, nil
}

func throughputRow(mode string, m throughputMetrics) ThroughputRow {
	n := float64(m.packets)
	return ThroughputRow{
		Mode:               mode,
		Packets:            m.packets,
		PktsPerSec:         n / m.elapsed.Seconds(),
		NSPerPkt:           float64(m.elapsed.Nanoseconds()) / n,
		AllocsPerPkt:       float64(m.allocs) / n,
		BytesPerPkt:        float64(m.bytes) / n,
		ReceiptBytesPerPkt: float64(m.receiptBytes) / n,
	}
}

// ThroughputRender renders the rows.
func ThroughputRender(rows []ThroughputRow, markdown bool) string {
	header := []string{"Mode", "Mpkts/s", "ns/pkt", "allocs/pkt", "B/pkt", "rcptB/pkt"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			r.Mode,
			fmt.Sprintf("%.2f", r.PktsPerSec/1e6),
			fmt.Sprintf("%.1f", r.NSPerPkt),
			fmt.Sprintf("%.4f", r.AllocsPerPkt),
			fmt.Sprintf("%.1f", r.BytesPerPkt),
			fmt.Sprintf("%.3f", r.ReceiptBytesPerPkt),
		})
	}
	if markdown {
		return Markdown(header, body)
	}
	return Table(header, body)
}
