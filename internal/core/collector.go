// Package core implements VPM itself — the paper's primary
// contribution. It ties the substrate packages together into the
// NetFlow-like monitoring platform of §7:
//
//   - Collector: the data-plane module at a HOP, and the only one. For
//     every packet it looks up the HOP path, updates the open aggregate
//     receipt (Algorithm 2), and feeds the temporary packet buffer of
//     the bias-resistant delay sampler (Algorithm 1). Its per-packet
//     work is a path lookup, a digest comparison, a counter update and
//     a buffer append — the "three memory accesses, one hash function,
//     and one timestamp computation" budget of §7.1 — batched and
//     grouped by path (dispatch.go). The per-packet reference it is
//     held to, receipt for receipt, is test code: referenceCollector
//     in oracle_test.go.
//   - Processor: the control-plane module that periodically drains
//     finalized receipts from the collector and accounts for the
//     bandwidth they consume.
//   - Plan and Deployment: a Plan is the collector-free part of a
//     deployment (HOPs, verifier constants, route layouts) that a
//     verify-only process holds; Plan.Deploy wires a collector onto
//     each of its HOPs.
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

	"vpm/internal/aggregation"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/sampling"
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
	return c.Aggregation.Validate()
}

// Collector is the data-plane module of one HOP — the collector every
// deployment runs: a classification cache resolving each packet to a
// dense path-state index, sub-batches grouped by path (dispatch.go),
// and the batch hooks of Algorithms 1 and 2 fed one path at a time. It
// is receipt-for-receipt equivalent to applying the two algorithms
// packet by packet in arrival order, which is what the tests'
// referenceCollector (oracle_test.go) does.
//
// Concurrency model: one goroutine at a time (netsim's replay gives
// each HOP's observer its own goroutine). The collector starts none.
type Collector struct {
	cfg   CollectorConfig
	epoch EpochID

	// states holds every live path's state at a dense index — what the
	// classification cache resolves to and the drains walk; paths finds
	// the index by key when the cache cannot. An evicted path leaves a
	// nil slot, listed in free for the next new path to take.
	paths  map[packet.PathKey]uint32
	states []*pathState
	free   []uint32

	// Recycled outer receipt slices for Drain/Flush (see Recycle).
	spareSamples []receipt.SampleReceipt
	spareAggs    []receipt.AggReceipt

	observed     uint64
	unclassified uint64

	// cache is its own allocation: exactly 16 pages. Embedded, it
	// would round every collector up to a 17th page (8 KiB more per
	// HOP) for no measurable gain in time.
	cache *[classifyCacheSize]classifyEntry
	// sub is its own allocation for the same reason.
	sub *subBatch
}

// NewCollector builds one HOP's collector.
func NewCollector(cfg CollectorConfig) (*Collector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Collector{
		cfg:   cfg,
		paths: make(map[packet.PathKey]uint32),
		cache: new([classifyCacheSize]classifyEntry),
		sub:   &subBatch{currentState: noState},
	}, nil
}

// HOP returns the collector's HOP identity.
func (c *Collector) HOP() receipt.HOPID { return c.cfg.HOP }

// Observe processes one packet observation — the single-packet
// compatibility shim. digest is the packet's 64-bit ID; tNS the HOP's
// (possibly skewed) observation timestamp.
//
//vpm:hotpath
func (c *Collector) Observe(pkt *packet.Packet, digest uint64, tNS int64) {
	c.observed++
	state, ok := c.classify(pkt)
	if !ok {
		c.unclassified++
		return
	}
	st := c.states[state]
	st.touched = true
	st.part.Observe(digest, tNS)
	st.sampler.Observe(digest, tNS)
}

// ObserveBatch processes a batch of observations: it classifies each
// into the pending sub-batch (preserving arrival order) and processes
// the sub-batch whenever it fills, and once more at the end of the
// batch.
//
//vpm:hotpath
func (c *Collector) ObserveBatch(batch []netsim.Observation) {
	c.observed += uint64(len(batch))
	s := c.sub
	for i := range batch {
		state, ok := c.classify(batch[i].Pkt)
		if !ok {
			c.unclassified++
			continue
		}
		if s.nrecs == subBatchSize {
			s.process(c.states)
		}
		if state != s.currentState {
			s.enter(state)
		}
		s.push(batch[i].Digest, batch[i].TimeNS)
	}
	if s.nrecs > 0 {
		s.process(c.states)
	}
}

// Drain returns the receipts finalized since the last Drain: one
// sample receipt per active path (empty ones are skipped) plus all
// closed aggregate receipts, sorted by PathID — identical runs drain
// identical receipt sequences. The control-plane processor calls this
// periodically.
//
//vpm:hotpath
func (c *Collector) Drain() ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	samples, aggs := c.takeSpares()
	evicted := false
	for i, st := range c.states {
		if st == nil {
			continue
		}
		var evict bool
		samples, aggs, evict = drainPath(st, c.cfg.EvictIdleEpochs, samples, aggs)
		if evict {
			c.states[i] = nil
			c.free = append(c.free, uint32(i))
			evicted = true
		}
	}
	if evicted {
		// A key or a cached pair still resolving to a freed slot would
		// feed the slot's next tenant another path's packets. Drop
		// exactly those — the cache entries keep their classification,
		// so a resuming pair costs a map lookup, not a prefix match — in
		// one pass over each, before any slot can be reused. Eviction
		// epochs are rare.
		for key, state := range c.paths {
			if c.states[state] == nil {
				delete(c.paths, key)
			}
		}
		for i := range c.cache {
			if e := &c.cache[i]; e.state != noState && c.states[e.state] == nil {
				e.state = noState
			}
		}
	}
	return sortReceipts(samples, aggs)
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
// as Drain. Both outputs are sized once, up front, to exactly what the
// live paths hold.
func (c *Collector) Flush() ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	samples, aggs := c.takeSpares()
	nSamples, nAggs := 0, 0
	for _, st := range c.states {
		if st != nil {
			nSamples += min(st.sampler.Held(), 1)
			nAggs += st.part.Held()
		}
	}
	samples = slices.Grow(samples, nSamples)
	aggs = slices.Grow(aggs, nAggs)
	for _, st := range c.states {
		if st != nil {
			samples, aggs = flushPath(st, samples, aggs)
		}
	}
	return sortReceipts(samples, aggs)
}

// Recycle hands the buffers of a previous Drain/Flush result back for
// reuse: the outer slices return to the collector, each receipt's
// record buffer to its path's sampler. Only call with the exact slices
// that call returned, and only when nothing retains them or their
// records — retaining callers (the Processor, the windowed store)
// simply never call it. Kept slices are cleared, so a spare pins no
// record buffer of the epoch it carried.
func (c *Collector) Recycle(samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
	for i := range samples {
		if state, ok := c.paths[samples[i].Path.Key]; ok {
			c.states[state].sampler.Recycle(samples[i].Samples)
		}
	}
	if cap(samples) > cap(c.spareSamples) {
		clear(samples[:cap(samples)])
		c.spareSamples = samples[:0]
	}
	if cap(aggs) > cap(c.spareAggs) {
		clear(aggs[:cap(aggs)])
		c.spareAggs = aggs[:0]
	}
}

// Memory reports the §7.1 memory accounting; the temp-buffer peak is
// the maximum over paths (each path owns its own buffer).
func (c *Collector) Memory() MemoryStats {
	m := MemoryStats{ActivePaths: len(c.paths)}
	for _, st := range c.states {
		if st != nil {
			m.TempBufferPeakEntries = max(m.TempBufferPeakEntries, st.sampler.TempHighWater())
		}
	}
	m.MonitoringCacheBytes = m.ActivePaths * receipt.BaseAggReceiptBytes
	m.TempBufferPeakBytes = m.TempBufferPeakEntries * receipt.SampleRecordBytes
	return m
}

// Stats returns (packets observed, packets that matched no prefix).
func (c *Collector) Stats() (observed, unclassified uint64) {
	return c.observed, c.unclassified
}

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

// pathState is the collector's per-active-path state: one open
// aggregate receipt and the sampler's temporary buffer (§7.1's
// monitoring-cache entry). Both algorithms' state lives in it by value,
// so a path costs one allocation and an observation reaches its
// Partitioner and Sampler without a pointer hop to memory of their own.
type pathState struct {
	id      receipt.PathID
	sampler sampling.Sampler
	part    aggregation.Partitioner

	// touched records whether the path saw any observation since the
	// last Drain; idleDrains counts consecutive untouched Drains. They
	// drive the opt-in idle eviction (CollectorConfig.EvictIdleEpochs).
	touched    bool
	idleDrains int32
}

// newPathState builds one path's state.
func newPathState(cfg *CollectorConfig, key packet.PathKey) *pathState {
	//lint:ignore hotpath once per newly seen path, amortized over that path's whole packet stream
	st := &pathState{id: cfg.PathID(key)}
	st.sampler.Init(cfg.Sampling)
	st.part.Init(cfg.Aggregation, st.id)
	return st
}

// drainPath moves one path's finalized receipts into (samples, aggs)
// and applies the idle-eviction policy: when the path has been
// untouched for evictAfter consecutive Drains, its open aggregate is
// force-flushed into this drain and evict=true tells the caller to
// delete the state. With evictAfter == 0 the policy is off and every
// path drains the historical way.
func drainPath(st *pathState, evictAfter int, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) (_ []receipt.SampleReceipt, _ []receipt.AggReceipt, evict bool) {
	if recs := st.sampler.Take(); len(recs) > 0 {
		samples = append(samples, receipt.SampleReceipt{Path: st.id, Samples: recs})
	}
	if st.touched {
		st.touched = false
		st.idleDrains = 0
	} else if evictAfter > 0 {
		st.idleDrains++
		if st.idleDrains >= int32(evictAfter) {
			return samples, st.part.Flush(aggs), true
		}
	}
	taken := st.part.Take()
	aggs = append(aggs, taken...)
	st.part.Recycle(taken)
	return samples, aggs, false
}

// flushPath finalizes one path's open state into (samples, aggs).
func flushPath(st *pathState, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	aggs = st.part.Flush(aggs)
	if recs := st.sampler.Take(); len(recs) > 0 {
		samples = append(samples, receipt.SampleReceipt{Path: st.id, Samples: recs})
	}
	return samples, aggs
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
