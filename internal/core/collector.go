// Package core implements VPM itself — the paper's primary
// contribution. It ties the substrate packages together into the
// NetFlow-like monitoring platform of §7:
//
//   - ShardedCollector: the data-plane module at a HOP. For every
//     packet it looks up the HOP path, updates the open aggregate
//     receipt (Algorithm 2), and feeds the temporary packet buffer of
//     the bias-resistant delay sampler (Algorithm 1). Its per-packet
//     work is a path lookup, a digest comparison, a counter update and
//     a buffer append — the "three memory accesses, one hash function,
//     and one timestamp computation" budget of §7.1 — batched and
//     grouped by path. Collector is its per-packet reference
//     implementation, kept as the test oracle.
//   - Processor: the control-plane module that periodically drains
//     finalized receipts from the collector and accounts for the
//     bandwidth they consume.
//   - Deployment: wires collectors onto every HOP of a simulated path.
//   - Verifier: consumes receipts from all HOPs of a path, estimates
//     each domain's loss (exactly, via the aggregate join) and delay
//     quantiles (probabilistically, via matched samples), and checks
//     inter-domain consistency to expose liars (§4).
//   - Adversary helpers: the receipt-fabrication strategies of the
//     threat model.
package core

import (
	"fmt"
	"slices"
	"sort"

	"vpm/internal/aggregation"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/sampling"
	"vpm/internal/streamagg"
)

// Backend selects how a collector aggregates sampled delay state.
type Backend int

const (
	// BackendExact (the zero value) retains every sampled record
	// exactly — the verification oracle and the historical default.
	BackendExact Backend = iota
	// BackendSketch thins retained records through a system-wide
	// KeepFilter and maintains pooled streaming summary state
	// (count + IBLT + interarrival histogram) per path, sealed via
	// DrainSketches at epoch close. Receipts still carry the retained
	// subsample, which every HOP computes identically, so the §4
	// record-for-record consistency checks keep working.
	BackendSketch
)

// CollectorConfig configures one HOP's collector.
type CollectorConfig struct {
	// HOP is the reporting HOP's identity.
	HOP receipt.HOPID
	// Table classifies packet addresses into origin prefixes.
	Table *packet.Table
	// PathID derives the full PathID (prev/next HOP, MaxDiff) this
	// HOP stamps on receipts for a given origin-prefix pair; the
	// collector invokes it on the observing goroutine when a new path
	// appears. It must be injective — distinct keys map to distinct
	// PathIDs (natural, since the PathID embeds the key); collectors
	// assume one PathID names one path when draining.
	PathID func(key packet.PathKey) receipt.PathID
	// Sampling configures Algorithm 1 (µ is system-wide, σ local).
	Sampling sampling.Config
	// Aggregation configures Algorithm 2 (δ local, J system-wide).
	Aggregation aggregation.Config
	// Backend selects exact sample retention (the zero value) or the
	// streaming sketch backend.
	Backend Backend
	// Sketch configures the streaming backend; only consulted when
	// Backend == BackendSketch.
	Sketch streamagg.Config
	// EvictIdleEpochs, when positive, evicts a path's state after it
	// has seen no observations for that many consecutive Drains: the
	// path's open aggregate is force-flushed into the evicting Drain
	// (its packets are reported exactly once, just on an idle-timeout
	// cut instead of a hash-selected one) and the sampler's stale
	// pre-marker buffer is discarded. This keeps the monitoring cache
	// bounded by the *active* working set under path churn, at the cost
	// of an extra aggregate boundary on idle-then-resumed paths. All
	// HOPs of a deployment must use the same value — they see the same
	// traffic, so they evict the same paths at the same rotations and
	// receipts stay comparable. 0 (the default) never evicts — the
	// historical behavior, and the byte-identity baseline.
	EvictIdleEpochs int
}

// Validate checks the configuration.
func (c CollectorConfig) Validate() error {
	if c.Table == nil {
		return fmt.Errorf("core: collector needs a prefix table")
	}
	if c.PathID == nil {
		return fmt.Errorf("core: collector needs a PathID builder")
	}
	if c.EvictIdleEpochs < 0 {
		return fmt.Errorf("core: negative idle-eviction threshold %d", c.EvictIdleEpochs)
	}
	if err := c.Sampling.Validate(); err != nil {
		return err
	}
	if c.Backend == BackendSketch {
		if err := c.Sketch.Validate(); err != nil {
			return err
		}
		if c.Sketch.MarkerRate != c.Sampling.MarkerRate {
			return fmt.Errorf("core: sketch marker rate %v differs from sampling marker rate %v",
				c.Sketch.MarkerRate, c.Sampling.MarkerRate)
		}
	}
	return c.Aggregation.Validate()
}

// PathCollector is the data-plane surface a Deployment drives. The
// ShardedCollector every deployment runs and the reference Collector
// the tests compare it against both implement it, so everything
// downstream (Processor, Deployment, netsim replay) is agnostic to
// which one it holds.
type PathCollector interface {
	netsim.Observer
	netsim.BatchObserver
	// HOP returns the collector's HOP identity.
	HOP() receipt.HOPID
	// Drain returns receipts finalized since the last Drain, in
	// deterministic (PathID-sorted) order.
	Drain() ([]receipt.SampleReceipt, []receipt.AggReceipt)
	// Flush finalizes all open state and returns the remaining
	// receipts, in deterministic order.
	Flush() ([]receipt.SampleReceipt, []receipt.AggReceipt)
	// Epoch returns the current (open) epoch ordinal.
	Epoch() EpochID
	// RotateInterval seals the current epoch — draining the receipts
	// finalized during it, Drain-style — and opens the next. Open
	// aggregates and pending sampler buffers carry across untouched.
	RotateInterval() (EpochID, []receipt.SampleReceipt, []receipt.AggReceipt)
	// CloseEpoch finalizes all open state into the current epoch —
	// the terminal rotation at end of stream (Flush semantics).
	CloseEpoch() (EpochID, []receipt.SampleReceipt, []receipt.AggReceipt)
	// DrainSketches seals and returns the per-path streaming sketches
	// accumulated since the last call, in PathID-sorted order (empty
	// under BackendExact). Return sealed sketches to SketchPool once
	// consumed so epoch rotation stays allocation-free.
	DrainSketches() []*streamagg.PathSketch
	// SketchPool returns the pool sealed sketches should be returned
	// to (nil under BackendExact).
	SketchPool() *streamagg.Pool
	// Recycle hands the buffers of a previous Drain/Flush result back
	// to the collector for reuse. Only call with the exact slices that
	// call returned, and only when nothing retains them or their
	// records — retaining callers (the Processor, the windowed store)
	// simply never call it.
	Recycle(samples []receipt.SampleReceipt, aggs []receipt.AggReceipt)
	// Memory reports the §7.1 memory accounting.
	Memory() MemoryStats
	// Stats returns (packets observed, packets that matched no
	// prefix).
	Stats() (observed, unclassified uint64)
}

// NewPathCollector builds the collector every deployment runs: a
// ShardedCollector.
func NewPathCollector(cfg CollectorConfig) (PathCollector, error) {
	c, err := NewShardedCollector(cfg)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// pathState is the collector's per-active-path state: one open
// aggregate receipt and the sampler's temporary buffer (§7.1's
// monitoring-cache entry), plus — under BackendSketch — the lazily
// created streaming summary.
type pathState struct {
	id      receipt.PathID
	sampler *sampling.Sampler
	part    *aggregation.Partitioner
	sketch  *streamagg.PathSketch

	// touched records whether the path saw any observation since the
	// last Drain; idleDrains counts consecutive untouched Drains. They
	// drive the opt-in idle eviction (CollectorConfig.EvictIdleEpochs).
	touched    bool
	idleDrains int32
}

// backend is the streaming-backend plumbing of a collector: the keep
// filter and one sketch pool.
type backend struct {
	sketch bool
	keep   streamagg.KeepFilter
	pool   *streamagg.Pool
}

func newBackend(cfg *CollectorConfig) backend {
	if cfg.Backend != BackendSketch {
		return backend{}
	}
	return backend{
		sketch: true,
		keep:   streamagg.NewKeepFilter(cfg.Sketch.KeepRate, cfg.Sketch.Salt, cfg.Sketch.MarkerRate),
		pool:   streamagg.NewPool(cfg.Sketch.SketchCells, cfg.Sketch.SketchSeed),
	}
}

// newPathState builds one path's state, wiring the thinning filter and
// the streaming sink when the sketch backend is on. The PathSketch
// itself is created lazily on the first sampled record — only a small
// fraction of paths see a sample in any interval, and pool-recycled
// sketches carry ~16 KiB of histogram state each.
func (b *backend) newPathState(cfg *CollectorConfig, key packet.PathKey) *pathState {
	id := cfg.PathID(key)
	//lint:ignore hotpath once per newly seen path, amortized over that path's whole packet stream
	st := &pathState{
		id:      id,
		sampler: sampling.New(cfg.Sampling),
		part:    aggregation.New(cfg.Aggregation, id),
	}
	if b.sketch {
		st.sampler.SetKeep(b.keep.Keep)
		pool := b.pool
		//lint:ignore hotpath sink closure is bound once at path setup, not per packet
		st.sampler.SetSink(func(pktID uint64, tNS int64) {
			if st.sketch == nil {
				st.sketch = pool.Get(st.id)
			}
			st.sketch.Observe(pktID, tNS)
		})
	}
	return st
}

// Collector is the reference implementation of one HOP's data-plane
// module: Algorithms 1 and 2 applied packet by packet, with a
// longest-prefix match and a path-map lookup for every observation and
// nothing cached or batched. No deployment runs it — NewPathCollector
// always builds a ShardedCollector, which is several times faster —
// it stays as the oracle the equivalence tests and
// the serial benchmark row hold the ShardedCollector to, receipt for
// receipt. It implements PathCollector (and thereby netsim.Observer
// and netsim.BatchObserver).
//
// Concurrency model: all of its state (path map, samplers,
// partitioners, counters) is owned by a single goroutine and its
// per-packet path takes no locks — the §7.1 budget of three memory
// accesses, one hash function and one timestamp computation, spelled
// out literally.
type Collector struct {
	cfg     CollectorConfig
	backend backend
	paths   map[packet.PathKey]*pathState
	epoch   EpochID

	// Recycled outer receipt slices for Drain/Flush (see Recycle).
	spareSamples []receipt.SampleReceipt
	spareAggs    []receipt.AggReceipt

	observed     uint64
	unclassified uint64
}

// NewCollector builds the reference collector (see Collector); use
// NewPathCollector for one that carries traffic.
func NewCollector(cfg CollectorConfig) (*Collector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Collector{cfg: cfg, paths: make(map[packet.PathKey]*pathState)}
	c.backend = newBackend(&c.cfg)
	return c, nil
}

// Observe processes one packet observation: classify, aggregate,
// sample. digest is the packet's 64-bit ID; tNS the HOP's (possibly
// skewed) observation timestamp.
//
//vpm:hotpath
func (c *Collector) Observe(pkt *packet.Packet, digest uint64, tNS int64) {
	c.observed++
	key, ok := c.cfg.Table.Classify(pkt)
	if !ok {
		c.unclassified++
		return
	}
	st, ok := c.paths[key]
	if !ok {
		st = c.backend.newPathState(&c.cfg, key)
		c.paths[key] = st
	}
	st.touched = true
	st.part.Observe(digest, tNS)
	st.sampler.Observe(digest, tNS)
}

// ObserveBatch processes a slice of observations in order — the
// netsim.BatchObserver entry point. Semantically identical to calling
// Observe per packet, and implemented as exactly that.
//
//vpm:hotpath
func (c *Collector) ObserveBatch(batch []netsim.Observation) {
	for i := range batch {
		c.Observe(batch[i].Pkt, batch[i].Digest, batch[i].TimeNS)
	}
}

// HOP returns the collector's HOP identity.
func (c *Collector) HOP() receipt.HOPID { return c.cfg.HOP }

// Drain returns the receipts finalized since the last Drain: one
// sample receipt per active path (possibly empty ones are skipped)
// plus all closed aggregate receipts, sorted by PathID so that
// identical runs drain identical receipt sequences regardless of map
// iteration order. The control-plane processor calls this
// periodically.
//
//vpm:hotpath
func (c *Collector) Drain() ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	samples, aggs := c.takeSpares()
	for key, st := range c.paths {
		var evict bool
		samples, aggs, evict = drainPath(st, c.cfg.EvictIdleEpochs, samples, aggs)
		if evict {
			delete(c.paths, key)
		}
	}
	return sortReceipts(samples, aggs)
}

// drainPath moves one path's finalized receipts into (samples, aggs)
// and applies the idle-eviction policy: when the path has been
// untouched for evictAfter consecutive Drains (and its sketch, if any,
// has been sealed away), its open aggregate is force-flushed into this
// drain and evict=true tells the caller to delete the state. With
// evictAfter == 0 the policy is off and every path drains the
// historical way.
func drainPath(st *pathState, evictAfter int, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) (_ []receipt.SampleReceipt, _ []receipt.AggReceipt, evict bool) {
	if recs := st.sampler.Take(); len(recs) > 0 {
		samples = append(samples, receipt.SampleReceipt{Path: st.id, Samples: recs})
	}
	if st.touched {
		st.touched = false
		st.idleDrains = 0
	} else if evictAfter > 0 {
		st.idleDrains++
		if st.idleDrains >= int32(evictAfter) && st.sketch == nil {
			flushed := st.part.Flush()
			aggs = append(aggs, flushed...)
			return samples, aggs, true
		}
	}
	taken := st.part.Take()
	aggs = append(aggs, taken...)
	st.part.Recycle(taken)
	return samples, aggs, false
}

// takeSpares hands out the recycled outer receipt slices (nil when the
// caller never recycles — the allocating, always-safe default).
func (c *Collector) takeSpares() ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	samples, aggs := c.spareSamples, c.spareAggs
	c.spareSamples, c.spareAggs = nil, nil
	return samples, aggs
}

// Flush finalizes all open state (end of reporting period or stream)
// and returns the remaining receipts, in the same deterministic order
// as Drain.
func (c *Collector) Flush() ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	samples, aggs := c.takeSpares()
	for _, st := range c.paths {
		samples, aggs = flushPath(st, samples, aggs)
	}
	return sortReceipts(samples, aggs)
}

// flushPath finalizes one path's open state into (samples, aggs).
func flushPath(st *pathState, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	flushed := st.part.Flush()
	aggs = append(aggs, flushed...)
	st.part.Recycle(flushed)
	if recs := st.sampler.Take(); len(recs) > 0 {
		samples = append(samples, receipt.SampleReceipt{Path: st.id, Samples: recs})
	}
	return samples, aggs
}

// Recycle hands the buffers of a previous Drain/Flush result back for
// reuse: the outer slices return to the collector, each receipt's
// record buffer to its path's sampler. Safe only when nothing retains
// the result (see PathCollector.Recycle).
func (c *Collector) Recycle(samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
	for i := range samples {
		if st, ok := c.paths[samples[i].Path.Key]; ok {
			st.sampler.Recycle(samples[i].Samples)
		}
	}
	if cap(samples) > cap(c.spareSamples) {
		c.spareSamples = samples[:0]
	}
	if cap(aggs) > cap(c.spareAggs) {
		c.spareAggs = aggs[:0]
	}
}

// DrainSketches seals and returns the streaming sketches of every path
// that sampled at least one packet since the last call, PathID-sorted.
// Ownership passes to the caller; return them via SketchPool().Put.
func (c *Collector) DrainSketches() []*streamagg.PathSketch {
	var out []*streamagg.PathSketch
	for _, st := range c.paths {
		if st.sketch != nil {
			out = append(out, st.sketch)
			st.sketch = nil
		}
	}
	sortSketches(out)
	return out
}

// SketchPool returns the pool sealed sketches recycle through (nil
// under BackendExact).
func (c *Collector) SketchPool() *streamagg.Pool { return c.backend.pool }

// sortSketches puts sealed sketches into canonical PathID order.
func sortSketches(s []*streamagg.PathSketch) {
	sort.Slice(s, func(a, b int) bool { return s[a].Path.Compare(s[b].Path) < 0 })
}

// sortReceipts puts drained receipts into the canonical deterministic
// order, both stably sorted by PathID only — each path's aggregates
// keep their stream order (CombineAggregates relies on it) — and
// upholds Drain's one-sample-receipt-per-path contract by combining
// sample receipts that share a PathID via receipt.CombineSamples. With
// an injective PathID builder (the documented requirement) none do; the
// fold keeps the oracle's and the deployed collector's drains behaving
// identically even if a caller breaks it.
func sortReceipts(samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	slices.SortStableFunc(samples, compareSamplePaths)
	slices.SortStableFunc(aggs, compareAggPaths)
	out := samples[:0]
	for _, s := range samples {
		if n := len(out); n > 0 && out[n-1].Path == s.Path {
			merged, err := receipt.CombineSamples(out[n-1], s)
			if err != nil {
				// Unreachable: the two share a PathID, the only error
				// CombineSamples has. Loud is better than silently
				// dropping measurements.
				panic(err)
			}
			out[n-1] = merged
			continue
		}
		out = append(out, s)
	}
	return out, aggs
}

func compareSamplePaths(a, b receipt.SampleReceipt) int { return a.Path.Compare(b.Path) }
func compareAggPaths(a, b receipt.AggReceipt) int       { return a.Path.Compare(b.Path) }

// MemoryStats is the §7.1 memory-budget breakdown of a collector.
type MemoryStats struct {
	// ActivePaths is the number of paths with live state.
	ActivePaths int
	// MonitoringCacheBytes is the per-path open-receipt state: the
	// paper's "PathID, AggID, and PktCnt — roughly 20 bytes" per
	// path, at our encoding's actual size.
	MonitoringCacheBytes int
	// TempBufferPeakEntries is the high-water mark of the delay
	// sampler's temporary packet buffer across paths (entries).
	TempBufferPeakEntries int
	// TempBufferPeakBytes converts the peak to bytes at the wire size
	// of one 〈PktID, Time〉 record.
	TempBufferPeakBytes int
}

// Memory reports the collector's current memory accounting.
func (c *Collector) Memory() MemoryStats {
	m := MemoryStats{ActivePaths: len(c.paths)}
	peak := 0
	for _, st := range c.paths {
		if hw := st.sampler.TempHighWater(); hw > peak {
			peak = hw
		}
	}
	m.MonitoringCacheBytes = len(c.paths) * receipt.BaseAggReceiptBytes
	m.TempBufferPeakEntries = peak
	m.TempBufferPeakBytes = peak * receipt.SampleRecordBytes
	return m
}

// Stats returns (packets observed, packets that matched no prefix).
func (c *Collector) Stats() (observed, unclassified uint64) {
	return c.observed, c.unclassified
}
