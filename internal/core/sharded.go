package core

import (
	"encoding/binary"
	"runtime"
	"sync"

	"vpm/internal/hashing"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/streamagg"
)

// resolveShards maps the CollectorConfig.Shards knob to an actual
// shard count: 0 means GOMAXPROCS, anything else is taken literally.
func resolveShards(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// packedKey is a PathKey in 12 bytes — the two prefix addresses as
// words plus the two prefix lengths — instead of PathKey's 32 (its
// Prefix.Bits are ints). The batch path carries keys in this form from
// the classification cache through the run-length encoding to the
// path-state memo, and expands one only when the memo misses.
type packedKey struct {
	src, dst         uint32
	srcBits, dstBits uint8
}

func packKey(key packet.PathKey) packedKey {
	return packedKey{
		src:     binary.BigEndian.Uint32(key.Src.Addr[:]),
		dst:     binary.BigEndian.Uint32(key.Dst.Addr[:]),
		srcBits: uint8(key.Src.Bits),
		dstBits: uint8(key.Dst.Bits),
	}
}

func (k packedKey) unpack() packet.PathKey {
	var key packet.PathKey
	binary.BigEndian.PutUint32(key.Src.Addr[:], k.src)
	binary.BigEndian.PutUint32(key.Dst.Addr[:], k.dst)
	key.Src.Bits, key.Dst.Bits = int(k.srcBits), int(k.dstBits)
	return key
}

// hash hashes the key for shard selection and for the per-shard
// path-state memo. It packs both prefix addresses into one word and
// folds the prefix lengths in before mixing.
func (k packedKey) hash() uint64 {
	bits := uint64(k.srcBits)<<6 | uint64(k.dstBits)
	return hashing.Mix64((uint64(k.src)<<32 | uint64(k.dst)) ^ bits*0x9e3779b97f4a7c15)
}

// classifyCacheSize is the dispatcher's direct-mapped classification
// cache: it short-circuits the two longest-prefix-match lookups for
// recently seen (source, destination) address pairs. Flows repeat
// addresses for many packets, but a direct-mapped cache lives and dies
// by conflict misses: with a few hundred live pairs, 512 slots still
// evict hot pairs into each other's slots often enough to put the LPM
// walk back on the per-packet profile. 4096 slots (128 KiB) keeps the
// conflict rate negligible at working sets into the low thousands of
// pairs. Must be a power of two. The size is fixed on purpose: a cache
// that grows on conflict re-misses its whole working set after every
// regrowth, which costs more than it saves at a few packets per key.
const classifyCacheSize = 4096

// classifyEntry caches one address pair's classification outcome. The
// key is stored packed, field by field, so the entry is 32 bytes — two
// per cache line — where one holding a packet.PathKey took 64; every
// HOP collector owns a table of them (TestClassifyEntrySize).
type classifyEntry struct {
	addrs            uint64 // packet src<<32 | dst
	hash             uint64 // packedKey.hash(), valid only when ok
	src, dst         uint32 // the matched prefixes (packedKey fields)
	shard            uint32
	srcBits, dstBits uint8
	valid            bool
	ok               bool // false: pair matched no prefix (still cached)
}

// stateMemoSize is each shard's direct-mapped PathKey → *pathState
// memo, skipping the path-map lookup for runs of hot paths. Must be a
// power of two.
const stateMemoSize = 64

// stateMemoEntry caches one shard-local path-state lookup.
type stateMemoEntry struct {
	key   packedKey
	state *pathState
}

// shardRun is a maximal run of consecutive same-path observations in
// a shard's sub-batch: the dispatcher run-length-encodes while
// partitioning, so the shard worker feeds whole runs to the batch
// hooks without per-packet key comparisons or copies.
type shardRun struct {
	hash uint64 // key.hash(), for the memo index
	key  packedKey
	n    int32
}

// shardChunk bounds a shard's sub-batch: ObserveBatch hands the shards
// their work whenever one of them has this many observations pending,
// however long the batch is. The scratch is therefore a fixed 10 KiB
// per shard — sized to the batch it would be 160 KiB at 4096
// observations, per HOP — and ObserveBatch never allocates: there is
// no pool to miss and no warm-up before the steady state.
const shardChunk = 256

// shard is one lock-free slice of a ShardedCollector: its own path
// map, samplers and partitioner state, touched only by the goroutine
// currently processing this shard's sub-batch.
type shard struct {
	cfg     *CollectorConfig
	backend *backend
	paths   map[packet.PathKey]*pathState
	memo    [stateMemoSize]stateMemoEntry

	// work is process-then-Done as a ready-made func value: `go
	// s.work()` starts it without the wrapper closure a go statement
	// with arguments or a receiver allocates on every spawn.
	work func()

	// The pending sub-batch, filled by the dispatcher: observations in
	// shard-arrival order plus their run-length encoding by path.
	// Pointer-free and last, so the garbage collector never scans it.
	nrecs, nruns int
	recs         [shardChunk]receipt.SampleRecord
	runs         [shardChunk]shardRun
}

// stateFor returns (creating on first use) the shard's state for key.
func (s *shard) stateFor(pk packedKey, hash uint64) *pathState {
	m := &s.memo[hash&(stateMemoSize-1)]
	if m.state != nil && m.key == pk {
		return m.state
	}
	key := pk.unpack()
	st, ok := s.paths[key]
	if !ok {
		st = s.backend.newPathState(s.cfg, key)
		s.paths[key] = st
	}
	m.key, m.state = pk, st
	return st
}

// push appends one observation to the pending sub-batch, extending the
// last run when it is the same path. The caller keeps nrecs below
// shardChunk.
func (s *shard) push(pk packedKey, hash uint64, digest uint64, tNS int64) {
	s.recs[s.nrecs] = receipt.SampleRecord{PktID: digest, TimeNS: tNS}
	s.nrecs++
	if n := s.nruns; n > 0 {
		if r := &s.runs[n-1]; r.hash == hash && r.key == pk {
			r.n++
			return
		}
	}
	s.runs[s.nruns] = shardRun{hash: hash, key: pk, n: 1}
	s.nruns++
}

// process runs the pending sub-batch through Algorithm 1 and
// Algorithm 2, feeding each same-path run to the batch hooks so
// per-packet dispatch is amortized. Observations stay in arrival
// order, so the shard's per-path state evolves exactly as a serial
// collector's would.
func (s *shard) process() {
	off := 0
	for i := range s.runs[:s.nruns] {
		r := &s.runs[i]
		st := s.stateFor(r.key, r.hash)
		st.touched = true
		run := s.recs[off : off+int(r.n)]
		st.part.ObserveBatch(run)
		st.sampler.ObserveBatch(run)
		off += int(r.n)
	}
	s.nrecs, s.nruns = 0, 0
}

// ShardedCollector is the data-plane module of one HOP, and the
// collector every deployment runs (NewPathCollector): it
// hash-partitions PathKeys across N single-threaded collector shards,
// each owning its own path map, sampler and partitioner state, so the
// per-packet path needs no locks. It implements PathCollector and is
// receipt-for-receipt equivalent to the reference Collector fed the
// same observations (each path's stream lands wholly in one shard, in
// arrival order). With one shard it is the same batched pipeline —
// classification cache, run-length-encoded sub-batches, path-state
// memo, batch hooks of Algorithms 1 and 2 — run inline on the calling
// goroutine.
//
// Concurrency model: Observe/ObserveBatch/Drain/Flush must be called
// from one goroutine at a time (netsim's replay gives each HOP's
// observer its own goroutine); inside ObserveBatch the shards process
// their sub-batches concurrently and the call returns only when all
// shards are done.
type ShardedCollector struct {
	cfg     CollectorConfig
	backend backend
	shards  []*shard
	epoch   EpochID
	wg      sync.WaitGroup

	// Recycled outer receipt slices for Drain/Flush (see Recycle).
	spareSamples []receipt.SampleReceipt
	spareAggs    []receipt.AggReceipt

	observed     uint64
	unclassified uint64

	// cache is its own allocation: exactly 16 pages. Embedded, it
	// rounds every collector up to a 17th (8 KiB each: 14 MB of the
	// fleet-http benchmark's live heap) for no measurable gain in time.
	cache *[classifyCacheSize]classifyEntry
}

// NewShardedCollector builds a sharded collector with
// resolveShards(cfg.Shards) shards (0 = GOMAXPROCS).
func NewShardedCollector(cfg CollectorConfig) (*ShardedCollector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := resolveShards(cfg.Shards)
	c := &ShardedCollector{cfg: cfg, shards: make([]*shard, n), cache: new([classifyCacheSize]classifyEntry)}
	c.backend = newBackend(&c.cfg)
	for i := range c.shards {
		s := &shard{cfg: &c.cfg, backend: &c.backend, paths: make(map[packet.PathKey]*pathState)}
		s.work = func() {
			s.process()
			c.wg.Done()
		}
		c.shards[i] = s
	}
	return c, nil
}

// NumShards returns the shard count.
func (c *ShardedCollector) NumShards() int { return len(c.shards) }

// HOP returns the collector's HOP identity.
func (c *ShardedCollector) HOP() receipt.HOPID { return c.cfg.HOP }

// classify resolves a packet's (packed) PathKey, path hash and shard
// through the direct-mapped cache, falling back to the prefix table's
// longest-prefix match on a miss.
func (c *ShardedCollector) classify(pkt *packet.Packet) (pk packedKey, hash uint64, sh uint32, ok bool) {
	addrs := uint64(binary.BigEndian.Uint32(pkt.Src[:]))<<32 | uint64(binary.BigEndian.Uint32(pkt.Dst[:]))
	e := &c.cache[hashing.Mix64(addrs)&(classifyCacheSize-1)]
	if e.valid && e.addrs == addrs {
		return packedKey{e.src, e.dst, e.srcBits, e.dstBits}, e.hash, e.shard, e.ok
	}
	key, ok := c.cfg.Table.Classify(pkt)
	e.addrs, e.valid, e.ok = addrs, true, ok
	if ok {
		pk = packKey(key)
		hash = pk.hash()
		sh = uint32(hash % uint64(len(c.shards)))
		e.src, e.dst, e.srcBits, e.dstBits = pk.src, pk.dst, pk.srcBits, pk.dstBits
		e.hash, e.shard = hash, sh
	}
	return pk, hash, sh, ok
}

// Observe processes one packet observation — the single-packet
// compatibility shim. It runs the owning shard inline.
//
//vpm:hotpath
func (c *ShardedCollector) Observe(pkt *packet.Packet, digest uint64, tNS int64) {
	c.observed++
	pk, hash, sh, ok := c.classify(pkt)
	if !ok {
		c.unclassified++
		return
	}
	st := c.shards[sh].stateFor(pk, hash)
	st.touched = true
	st.part.Observe(digest, tNS)
	st.sampler.Observe(digest, tNS)
}

// ObserveBatch processes a batch of observations: the dispatcher
// classifies and partitions the batch into per-shard sub-batches
// (preserving arrival order within each shard) and dispatches them
// whenever one fills, and once more at the end of the batch.
//
//vpm:hotpath
func (c *ShardedCollector) ObserveBatch(batch []netsim.Observation) {
	c.observed += uint64(len(batch))
	for i := range batch {
		pk, hash, sh, ok := c.classify(batch[i].Pkt)
		if !ok {
			c.unclassified++
			continue
		}
		s := c.shards[sh]
		if s.nrecs == shardChunk {
			c.dispatch()
		}
		s.push(pk, hash, batch[i].Digest, batch[i].TimeNS)
	}
	c.dispatch()
}

// dispatch runs every shard with a pending sub-batch and returns when
// all are done: the busy shards run concurrently, the last of them —
// so a lone one — on the calling goroutine instead of parking it in
// Wait.
func (c *ShardedCollector) dispatch() {
	var last *shard
	for _, s := range c.shards {
		if s.nrecs == 0 {
			continue
		}
		if last != nil {
			c.wg.Add(1)
			go last.work()
		}
		last = s
	}
	if last != nil {
		last.process()
		c.wg.Wait()
	}
}

// Drain returns the receipts finalized since the last Drain across
// all shards, merged per path via the ⊎ combination operators and
// sorted by PathID — identical runs drain identical receipt
// sequences, and a sharded drain is byte-identical to a serial one.
//
//vpm:hotpath
func (c *ShardedCollector) Drain() ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	samples, aggs := c.takeSpares()
	for _, s := range c.shards {
		evicted := false
		for key, st := range s.paths {
			var evict bool
			samples, aggs, evict = drainPath(st, c.cfg.EvictIdleEpochs, samples, aggs)
			if evict {
				delete(s.paths, key)
				evicted = true
			}
		}
		if evicted {
			// The state memo holds raw *pathState pointers; a stale hit
			// on an evicted path would resurrect state the path map no
			// longer drains. Eviction epochs are rare, so a wholesale
			// clear beats per-entry bookkeeping.
			s.memo = [stateMemoSize]stateMemoEntry{}
		}
	}
	samples = mergeSamplesByPath(samples)
	sortReceipts(samples, aggs)
	return samples, aggs
}

// takeSpares hands out the recycled outer receipt slices (nil when the
// caller never recycles — the allocating, always-safe default).
func (c *ShardedCollector) takeSpares() ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	samples, aggs := c.spareSamples, c.spareAggs
	c.spareSamples, c.spareAggs = nil, nil
	return samples, aggs
}

// Flush finalizes all shards' open state and returns the remaining
// receipts, in the same deterministic order as Drain.
func (c *ShardedCollector) Flush() ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	samples, aggs := c.takeSpares()
	for _, s := range c.shards {
		for _, st := range s.paths {
			flushed := st.part.Flush()
			aggs = append(aggs, flushed...)
			st.part.Recycle(flushed)
			if recs := st.sampler.Take(); len(recs) > 0 {
				samples = append(samples, receipt.SampleReceipt{Path: st.id, Samples: recs})
			}
		}
	}
	samples = mergeSamplesByPath(samples)
	sortReceipts(samples, aggs)
	return samples, aggs
}

// Recycle hands the buffers of a previous Drain/Flush result back for
// reuse: the outer slices return to the dispatcher, each receipt's
// record buffer to its owning shard's sampler. Safe only when nothing
// retains the result (see PathCollector.Recycle).
func (c *ShardedCollector) Recycle(samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
	for i := range samples {
		key := samples[i].Path.Key
		s := c.shards[packKey(key).hash()%uint64(len(c.shards))]
		if st, ok := s.paths[key]; ok {
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
// that sampled at least one packet since the last call, PathID-sorted
// across shards. Ownership passes to the caller; return them via
// SketchPool().Put.
func (c *ShardedCollector) DrainSketches() []*streamagg.PathSketch {
	var out []*streamagg.PathSketch
	for _, s := range c.shards {
		for _, st := range s.paths {
			if st.sketch != nil {
				out = append(out, st.sketch)
				st.sketch = nil
			}
		}
	}
	sortSketches(out)
	return out
}

// SketchPool returns the pool sealed sketches recycle through (nil
// under BackendExact).
func (c *ShardedCollector) SketchPool() *streamagg.Pool { return c.backend.pool }

// mergeSamplesByPath combines sample receipts that share a PathID via
// receipt.CombineSamples, upholding Drain's one-receipt-per-path
// contract. With an injective PathID builder (the documented
// requirement) duplicates cannot occur; the merge keeps serial and
// sharded drains behaving identically even if a caller breaks it.
func mergeSamplesByPath(samples []receipt.SampleReceipt) []receipt.SampleReceipt {
	//lint:ignore hotpath one dedup map per drain, not per packet
	byPath := make(map[receipt.PathID]int, len(samples))
	out := samples[:0]
	for _, s := range samples {
		if i, ok := byPath[s.Path]; ok {
			merged, err := receipt.CombineSamples(out[i], s)
			if err != nil {
				// Unreachable: entries are grouped by identical
				// PathID, the only error CombineSamples has. Loud is
				// better than silently dropping measurements.
				panic(err)
			}
			out[i] = merged
			continue
		}
		byPath[s.Path] = len(out)
		out = append(out, s)
	}
	return out
}

// Memory reports the §7.1 memory accounting aggregated across shards:
// path counts and cache bytes sum, the temp-buffer peak is the
// per-shard maximum (each shard owns its own buffers).
func (c *ShardedCollector) Memory() MemoryStats {
	var m MemoryStats
	for _, s := range c.shards {
		m.ActivePaths += len(s.paths)
		m.MonitoringCacheBytes += len(s.paths) * receipt.BaseAggReceiptBytes
		for _, st := range s.paths {
			if hw := st.sampler.TempHighWater(); hw > m.TempBufferPeakEntries {
				m.TempBufferPeakEntries = hw
			}
		}
	}
	m.TempBufferPeakBytes = m.TempBufferPeakEntries * receipt.SampleRecordBytes
	return m
}

// Stats returns (packets observed, packets that matched no prefix).
func (c *ShardedCollector) Stats() (observed, unclassified uint64) {
	return c.observed, c.unclassified
}
