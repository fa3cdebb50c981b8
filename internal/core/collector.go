// Package core implements VPM itself — the paper's primary
// contribution. It ties the substrate packages together into the
// NetFlow-like monitoring platform of §7:
//
//   - Collector: the data-plane module at a HOP, and the only one. For
//     every packet it looks up the HOP path, updates the open aggregate
//     receipt (Algorithm 2), and buffers the packet for the
//     bias-resistant delay sampler (Algorithm 1). Its per-packet work
//     is a path lookup, a digest comparison, a counter update and a
//     buffer append — the "three memory accesses, one hash function,
//     and one timestamp computation" budget of §7.1 — batched and
//     grouped by path (dispatch.go). A path's state is one entry of a
//     dense, pointer-free slice (what every packet touches), one record
//     buffer serving both algorithms, and out-of-line state touched only
//     at a marker, a cut or a drain. The per-packet reference it is held
//     to, receipt for receipt, is test code: referenceCollector in
//     oracle_test.go, which runs the literal per-packet
//     sampling.Sampler and aggregation.Partitioner.
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
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"

	"vpm/internal/aggregation"
	"vpm/internal/hashing"
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
	// appears. The PathID embeds the key it was derived from (its Key
	// is that key: the collector finds a path's state by it), so it is
	// injective — distinct keys map to distinct PathIDs.
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
// dense path index, sub-batches grouped by path (dispatch.go), and
// Algorithms 1 and 2 run together over each path's share of a
// sub-batch. It is receipt-for-receipt equivalent to applying the two
// algorithms packet by packet in arrival order, which is what the
// tests' referenceCollector (oracle_test.go) does.
//
// Concurrency model: one goroutine at a time (netsim's replay gives
// each HOP's observer its own goroutine). The collector starts none.
type Collector struct {
	cfg   CollectorConfig
	epoch EpochID

	// The thresholds of Algorithms 1 and 2 and the window J, once per
	// collector: µ (marker), σ (sample) and δ (cut). event is the lower
	// of µ and δ: a digest at or below it is neither marker nor cut.
	mu, sigma, delta, event uint64
	windowNS                int64

	// Every path's state lives at the dense index the classification
	// cache resolves to: hot is what each observation reads and writes,
	// recs the path's one record buffer, cold what only markers, cuts,
	// drains and new paths touch. index finds a path by key when the
	// cache cannot. An evicted path's index is listed in free for the
	// next new path; live counts the paths with state.
	hot   []pathHot
	recs  [][]receipt.SampleRecord
	cold  []pathCold
	index []uint64
	free  []uint32
	live  int

	// pending holds the closed aggregates still collecting the post-cut
	// half of their AggTrans window, every path's, in cut order.
	pending []pendingAgg

	// What the next Drain or Flush returns, logged as it is finalized:
	// sampled records and closed aggregates tagged with their path's
	// index, and the aggregates' AggTrans windows back to back. order is
	// the drain's scratch.
	sampleLog []loggedSample
	aggLog    []loggedAgg
	transLog  []receipt.SampleRecord
	order     []drainEntry

	// lent is the latest Drain/Flush result; spare what Recycle handed
	// back for the next one.
	lent, spare receiptSlabs

	// chunk is what is left of the chunk new paths' record buffers are
	// cut from (piece); deadPieces counts the pieces paths outgrew.
	chunk      []receipt.SampleRecord
	deadPieces int

	// one carries the single-packet Observe shim's record.
	one [1]receipt.SampleRecord

	tempHighWater int
	observed      uint64
	unclassified  uint64

	// cache is its own allocation: exactly 16 pages. Embedded, it
	// would round every collector up to a 17th page (8 KiB more per
	// HOP) for no measurable gain in time.
	cache *[classifyCacheSize]classifyEntry
	// sub is its own allocation for the same reason.
	sub *subBatch
}

// pathHot is the part of a path's state every observation touches —
// §7.1's monitoring-cache entry: the open aggregate's first packet and
// count, and the path's cursors into its record buffer. The aggregate's
// last packet and the path's last observation time are those of the
// buffer's newest record, which the buffer always keeps. It holds no
// pointer, so the garbage collector never scans the slice of them.
type pathHot struct {
	openFirst uint64 // first packet of the open aggregate
	openCnt   uint64 // its packet count; 0 when no aggregate is open
	// markStart is where Algorithm 1's pre-marker buffer begins in the
	// record buffer, winHead where Algorithm 2's J window does.
	markStart, winHead int32
	// idleDrains counts consecutive Drains without an observation
	// (CollectorConfig.EvictIdleEpochs).
	idleDrains uint32
	pending    uint16 // the path's entries in Collector.pending
	flags      uint8
}

const (
	pathLive    = 1 << iota // the index holds a path's state
	pathTouched             // observed since the last Drain
)

// pathCold is the part of a path's state only markers, cuts, drains and
// the key index touch: the PathID, whose Key is the path's key.
type pathCold struct {
	id receipt.PathID
	// n is a drain's scratch: the path's logged entries, then its
	// offset in the slab being filled.
	n uint32
}

// pendingAgg is a closed aggregate still collecting the post-cut half
// of its AggTrans window. The window is cut from the path's record
// buffer when the aggregate is logged: it is the records from preStart
// (where the J window began when the cut arrived) up to the cutting
// packet at cut that are within J of it, the cutting packet, and those
// after it observed later than the cut and no later than cut + J.
type pendingAgg struct {
	state         uint32
	preStart, cut int32
	cutTime       int64
	agg           receipt.AggID
	cnt           uint64
}

// loggedSample is one sampled record of the path at state.
type loggedSample struct {
	state uint32
	rec   receipt.SampleRecord
}

// loggedAgg is one closed aggregate of the path at state; its AggTrans
// window is transLog[from:to].
type loggedAgg struct {
	state    uint32
	from, to int32
	agg      receipt.AggID
	cnt      uint64
}

// drainEntry orders a drain's paths: by PathID, then by index.
type drainEntry struct {
	id    receipt.PathID
	state uint32
}

// receiptSlabs is the memory of one Drain/Flush result: the outer
// receipt slices and the slabs their records are cut from.
type receiptSlabs struct {
	samples []receipt.SampleReceipt
	aggs    []receipt.AggReceipt
	recs    []receipt.SampleRecord
	trans   []receipt.SampleRecord
}

// NewCollector builds one HOP's collector.
func NewCollector(cfg CollectorConfig) (*Collector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Collector{
		cfg:      cfg,
		mu:       hashing.ThresholdForRate(cfg.Sampling.MarkerRate),
		sigma:    hashing.ThresholdForRate(cfg.Sampling.SampleRate),
		delta:    hashing.ThresholdForRate(cfg.Aggregation.CutRate),
		windowNS: cfg.Aggregation.WindowNS,
		index:    make([]uint64, minIndexSize),
		cache:    new([classifyCacheSize]classifyEntry),
		sub:      &subBatch{currentState: noState},
	}
	c.event = min(c.mu, c.delta)
	return c, nil
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
	c.one[0] = receipt.SampleRecord{PktID: digest, TimeNS: tNS}
	c.observePath(state, c.one[:])
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
			s.process(c)
		}
		if state != s.currentState {
			s.enter(state)
		}
		s.push(batch[i].Digest, batch[i].TimeNS)
	}
	if s.nrecs > 0 {
		s.process(c)
	}
}

// observePath runs one path's observations, in arrival order, through
// Algorithms 1 and 2 at once. Markers and cuts are rare (µ and δ are
// per-mille-scale rates), so the records are consumed as event-free
// runs: one comparison per record finds the next marker or cut, and the
// run costs one append to the path's record buffer — the pre-marker
// buffer and the J window both — and one update of the open aggregate.
// A marker, a cut, and each record while one of the path's aggregates is
// still collecting its post-cut window take the per-record step.
func (c *Collector) observePath(state uint32, recs []receipt.SampleRecord) {
	h := &c.hot[state]
	h.flags |= pathTouched
	buf := c.recs[state]
	for len(recs) > 0 {
		if h.pending > 0 {
			buf = c.step(state, h, buf, recs[0])
			recs = recs[1:]
			continue
		}
		n := 0
		for n < len(recs) && recs[n].PktID <= c.event {
			n++
		}
		if n > 0 {
			buf = c.extend(state, h, buf, recs[:n])
		}
		if n == len(recs) {
			break
		}
		buf = c.step(state, h, buf, recs[n])
		recs = recs[n+1:]
	}
	c.recs[state] = buf
}

// extend appends an event-free run to a path: the open aggregate grows
// by the run, and the run joins the pre-marker buffer and the J window.
// The window is evicted once per run: it is only ever read through a
// time filter, so a stale head is invisible to receipts and trimming
// only bounds memory.
func (c *Collector) extend(state uint32, h *pathHot, buf, run []receipt.SampleRecord) []receipt.SampleRecord {
	last := run[len(run)-1].TimeNS
	if h.openCnt == 0 {
		h.openFirst = run[0].PktID
	}
	h.openCnt += uint64(len(run))
	skip := 0
	if c.windowNS > 0 {
		c.evictWindow(h, buf, last)
		if int(h.winHead) == len(buf) {
			// Everything older is gone, so eviction would go on to drop
			// the run's own leading records older than J (the last one
			// never is): the window starts past them.
			for run[skip].TimeNS < last-c.windowNS {
				skip++
			}
		}
	}
	buf = c.room(state, h, buf, len(run))
	buf = append(buf, run...)
	h.winHead += int32(skip)
	return buf
}

// step takes one record through both algorithms exactly as the
// per-packet reference does: the J window moves and expired post-cut
// windows close (Algorithm 2's eviction), a cut closes the open
// aggregate and opens the next, a marker decides the pre-marker buffer
// (Algorithm 1), and the record joins the buffer.
func (c *Collector) step(state uint32, h *pathHot, buf []receipt.SampleRecord, r receipt.SampleRecord) []receipt.SampleRecord {
	if c.windowNS > 0 {
		c.evictWindow(h, buf, r.TimeNS)
		if h.pending > 0 {
			c.logExpired(state, h, buf, r.TimeNS)
		}
	}
	if r.PktID > c.delta {
		if h.openCnt > 0 {
			c.closeOpen(state, h, buf, r)
		}
		h.openFirst, h.openCnt = r.PktID, 1
	} else {
		if h.openCnt == 0 {
			h.openFirst = r.PktID
		}
		h.openCnt++
	}
	marker := r.PktID > c.mu
	if marker {
		c.decide(state, buf[h.markStart:], r)
	}
	buf = c.room(state, h, buf, 1)
	buf = append(buf, r)
	if marker {
		h.markStart = int32(len(buf))
	}
	return buf
}

// evictWindow advances a path's J window past records older than J
// before now. When the path's newest record is itself older than J, so
// is the whole window, and it is dropped without reading it: on a path
// that sees a packet less often than every J — most keys of a many-key
// mesh — that read would be the first touch of memory gone cold since
// the path's last packet.
func (c *Collector) evictWindow(h *pathHot, buf []receipt.SampleRecord, now int64) {
	lo := now - c.windowNS
	if len(buf) == 0 || buf[len(buf)-1].TimeNS < lo {
		h.winHead = int32(len(buf))
		return
	}
	for int(h.winHead) < len(buf) && buf[h.winHead].TimeNS < lo {
		h.winHead++
	}
}

// closeOpen closes a path's open aggregate at the cutting packet r,
// which is about to join the buffer: without a window it is logged as
// it stands, with one it waits in pending for its post-cut half.
func (c *Collector) closeOpen(state uint32, h *pathHot, buf []receipt.SampleRecord, r receipt.SampleRecord) {
	agg := receipt.AggID{First: h.openFirst, Last: buf[len(buf)-1].PktID}
	if c.windowNS == 0 {
		c.aggLog = append(c.aggLog, loggedAgg{state: state, agg: agg, cnt: h.openCnt})
		return
	}
	c.pending = append(c.pending, pendingAgg{
		state: state, preStart: h.winHead, cut: int32(len(buf)), cutTime: r.TimeNS, agg: agg, cnt: h.openCnt,
	})
	h.pending++
}

// logExpired logs, in cut order, the path's pending aggregates whose
// post-cut window ended before now, and stops at the first that has
// not: Algorithm 2 finalizes them in that order.
func (c *Collector) logExpired(state uint32, h *pathHot, buf []receipt.SampleRecord, now int64) {
	kept := c.pending[:0]
	open := false
	for _, p := range c.pending {
		if p.state == state && !open {
			if p.cutTime+c.windowNS < now {
				c.logPending(&p, buf)
				h.pending--
				continue
			}
			open = true
		}
		kept = append(kept, p)
	}
	c.pending = kept
}

// logPending logs a closed aggregate with its AggTrans window, cut from
// its path's buffer as Algorithm 2 would have collected it by now.
func (c *Collector) logPending(p *pendingAgg, buf []receipt.SampleRecord) {
	from := len(c.transLog)
	lo, hi := p.cutTime-c.windowNS, p.cutTime+c.windowNS
	for _, r := range buf[p.preStart:p.cut] {
		if r.TimeNS >= lo {
			c.transLog = append(c.transLog, r)
		}
	}
	c.transLog = append(c.transLog, buf[p.cut])
	for _, r := range buf[p.cut+1:] {
		if r.TimeNS > p.cutTime && r.TimeNS <= hi {
			c.transLog = append(c.transLog, r)
		}
	}
	c.aggLog = append(c.aggLog, loggedAgg{state: p.state, from: int32(from), to: int32(len(c.transLog)), agg: p.agg, cnt: p.cnt})
}

// decide is Algorithm 1 at a marker: the marker's digest keys the
// sampling decision for every record of the pre-marker buffer, and the
// marker itself is sampled. The marker's half of SampleFcn is mixed
// once for the whole buffer. The buffer only grows between markers, so
// its length here is its high-water mark.
func (c *Collector) decide(state uint32, temp []receipt.SampleRecord, marker receipt.SampleRecord) {
	c.tempHighWater = max(c.tempHighWater, len(temp))
	key, sigma := hashing.SampleKey(marker.PktID), c.sigma
	for _, q := range temp {
		if hashing.Exceeds(hashing.SampleStep(q.PktID, key), sigma) {
			c.sampleLog = append(c.sampleLog, loggedSample{state: state, rec: q})
		}
	}
	c.sampleLog = append(c.sampleLog, loggedSample{state: state, rec: marker})
}

// room makes space for n more records in a path's buffer, compacting
// before it grows: the records before the pre-marker buffer, the J
// window and every pending window are dead, except the newest record,
// which stands for the path's last packet and time. They are dropped
// only when they are at least half the buffer, so copying stays
// amortized O(1) per record.
func (c *Collector) room(state uint32, h *pathHot, buf []receipt.SampleRecord, n int) []receipt.SampleRecord {
	if len(buf)+n <= cap(buf) {
		return buf
	}
	if cap(buf) == 0 && n <= pieceRecords {
		return c.piece()
	}
	dead := min(int(h.markStart), len(buf)-1)
	if c.windowNS > 0 {
		dead = min(dead, int(h.winHead))
	}
	if h.pending > 0 {
		for _, p := range c.pending {
			if p.state == state {
				dead = min(dead, int(p.preStart))
				break
			}
		}
	}
	if dead > 0 && 2*dead >= len(buf) {
		buf = c.compact(state, h, buf, dead)
	}
	if cap(buf) == pieceRecords && len(buf)+n > cap(buf) {
		c.deadPieces++ // the append moves the path out of its piece
	}
	return buf
}

// compact drops a path's dead records, the first dead of its buffer.
func (c *Collector) compact(state uint32, h *pathHot, buf []receipt.SampleRecord, dead int) []receipt.SampleRecord {
	buf = buf[:copy(buf, buf[dead:])]
	h.markStart -= int32(dead)
	if c.windowNS > 0 {
		h.winHead -= int32(dead)
	}
	if h.pending > 0 {
		for i := range c.pending {
			if p := &c.pending[i]; p.state == state {
				p.preStart -= int32(dead)
				p.cut -= int32(dead)
			}
		}
	}
	return buf
}

// A path's record buffer starts as a piece of pieceRecords records cut
// from a chunk the collector shares among its paths: most paths of a
// mesh hold a handful of records, and a buffer of their own, grown from
// nothing, would cost each of them an allocation at every doubling. A
// chunk has as many pieces as the collector has paths, up to
// chunkPieces, so a collector of one path holds one piece. A path that
// outgrows its piece moves to a buffer of its own and leaves the piece
// dead in its chunk.
const (
	pieceRecords = 4
	chunkPieces  = 256
)

// piece cuts a new path's first record buffer from the chunk.
func (c *Collector) piece() []receipt.SampleRecord {
	if len(c.chunk) < pieceRecords {
		//lint:ignore hotpath once per chunk, which holds a piece per path the collector has, up to chunkPieces
		c.chunk = make([]receipt.SampleRecord, min(c.live, chunkPieces)*pieceRecords)
	}
	p := c.chunk[:0:pieceRecords]
	c.chunk = c.chunk[pieceRecords:]
	return p
}

// Drain returns the receipts finalized since the last Drain: one
// sample receipt per active path (empty ones are skipped) plus all
// closed aggregate receipts, sorted by PathID — identical runs drain
// identical receipt sequences. The control-plane processor calls this
// periodically.
//
//vpm:hotpath
func (c *Collector) Drain() ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	if c.cfg.EvictIdleEpochs > 0 {
		c.evictIdle()
	}
	return c.gather()
}

// evictIdle applies the idle-eviction policy: a path untouched for
// EvictIdleEpochs consecutive Drains has its open state force-flushed
// into this Drain and its index freed.
func (c *Collector) evictIdle() {
	evicted := false
	for i := range c.hot {
		h := &c.hot[i]
		switch {
		case h.flags&pathLive == 0:
			continue
		case h.flags&pathTouched != 0:
			h.flags &^= pathTouched
			h.idleDrains = 0
			continue
		}
		h.idleDrains++
		if uint64(h.idleDrains) < uint64(c.cfg.EvictIdleEpochs) {
			continue
		}
		// The path's PathID stays until a new path takes the index: this
		// Drain's receipts are cut from the logs after the sweep.
		c.flushPath(uint32(i))
		*h = pathHot{}
		c.recs[i] = c.recs[i][:0]
		c.free = append(c.free, uint32(i))
		c.live--
		evicted = true
	}
	if evicted {
		// A key or a cached pair still resolving to a freed index would
		// feed the index's next tenant another path's packets. Drop
		// exactly those — the cache entries keep their classification,
		// so a resuming pair costs an index lookup, not a prefix match —
		// before any index can be reused. Eviction epochs are rare.
		c.reindex(len(c.index))
		for i := range c.cache {
			if e := &c.cache[i]; e.state != noState && c.hot[e.state].flags&pathLive == 0 {
				e.state = noState
			}
		}
	}
}

// flushPath logs everything a path still holds open: its pending
// aggregates, in cut order, and its open aggregate.
func (c *Collector) flushPath(state uint32) {
	h := &c.hot[state]
	buf := c.recs[state]
	if h.pending > 0 {
		kept := c.pending[:0]
		for _, p := range c.pending {
			if p.state == state {
				c.logPending(&p, buf)
				continue
			}
			kept = append(kept, p)
		}
		c.pending = kept
		h.pending = 0
	}
	if h.openCnt > 0 {
		c.logOpen(state, h, buf)
	}
}

// logOpen logs a path's open aggregate as the stream's last: its
// window is what the J window holds within J of the path's last
// observation.
func (c *Collector) logOpen(state uint32, h *pathHot, buf []receipt.SampleRecord) {
	last := buf[len(buf)-1]
	from := len(c.transLog)
	if c.windowNS > 0 {
		for _, r := range buf[h.winHead:] {
			if r.TimeNS >= last.TimeNS-c.windowNS {
				c.transLog = append(c.transLog, r)
			}
		}
	}
	c.aggLog = append(c.aggLog, loggedAgg{
		state: state, from: int32(from), to: int32(len(c.transLog)),
		agg: receipt.AggID{First: h.openFirst, Last: last.PktID}, cnt: h.openCnt,
	})
	h.openCnt = 0
}

// Flush finalizes all open state (end of reporting period or stream)
// and returns the remaining receipts, in the same deterministic order
// as Drain. The logs are sized once, up front, for what the paths hold
// open.
func (c *Collector) Flush() ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	nAggs, nTrans := len(c.pending), 0
	for _, p := range c.pending {
		nTrans += len(c.recs[p.state]) - int(p.preStart)
	}
	for i := range c.hot {
		if h := &c.hot[i]; h.openCnt > 0 {
			nAggs++
			if c.windowNS > 0 {
				nTrans += len(c.recs[i]) - int(h.winHead)
			}
		}
	}
	c.aggLog = slices.Grow(c.aggLog, nAggs)
	c.transLog = slices.Grow(c.transLog, nTrans)
	for i := range c.pending {
		p := &c.pending[i]
		c.logPending(p, c.recs[p.state])
		c.hot[p.state].pending = 0
	}
	c.pending = c.pending[:0]
	for i := range c.hot {
		if h := &c.hot[i]; h.openCnt > 0 {
			c.logOpen(uint32(i), h, c.recs[i])
		}
	}
	return c.gather()
}

// gather turns the logs into a Drain/Flush result: one sample slab and
// one aggregate slab, each a stable counting scatter of its log by path
// — so every path keeps its stream order — with the paths in PathID
// order (index order among equal PathIDs, whose sample receipts are
// combined: Drain returns one per PathID). The AggTrans log is handed
// out whole, each receipt's window a capped slice of it.
func (c *Collector) gather() ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	out := c.spare
	c.spare = receiptSlabs{}

	order := slices.Grow(c.order[:0], min(max(len(c.sampleLog), len(c.aggLog)), len(c.hot)))
	for _, e := range c.sampleLog {
		order = c.count(order, e.state)
	}
	order = c.offsets(order)
	recs := slices.Grow(out.recs[:0], len(c.sampleLog))[:len(c.sampleLog)]
	for _, e := range c.sampleLog {
		cd := &c.cold[e.state]
		recs[cd.n] = e.rec
		cd.n++
	}
	samples := slices.Grow(out.samples[:0], len(order))
	start := 0
	for _, o := range order {
		cd := &c.cold[o.state]
		end := int(cd.n)
		cd.n = 0
		if k := len(samples); k > 0 && samples[k-1].Path == o.id {
			from := start - len(samples[k-1].Samples)
			samples[k-1].Samples = recs[from:end:end]
		} else {
			samples = append(samples, receipt.SampleReceipt{Path: o.id, Samples: recs[start:end:end]})
		}
		start = end
	}

	order = order[:0]
	for _, e := range c.aggLog {
		order = c.count(order, e.state)
	}
	order = c.offsets(order)
	aggs := slices.Grow(out.aggs[:0], len(c.aggLog))[:len(c.aggLog)]
	trans := c.transLog
	for _, e := range c.aggLog {
		cd := &c.cold[e.state]
		a := &aggs[cd.n]
		cd.n++
		*a = receipt.AggReceipt{Path: cd.id, Agg: e.agg, PktCnt: e.cnt}
		if e.to > e.from {
			a.AggTrans = trans[e.from:e.to:e.to]
		}
	}
	for _, o := range order {
		c.cold[o.state].n = 0
	}

	c.sampleLog, c.aggLog = c.sampleLog[:0], c.aggLog[:0]
	if out.trans != nil {
		c.transLog = out.trans[:0]
	} else {
		//lint:ignore hotpath once per drain, sized to the AggTrans log just handed out
		c.transLog = make([]receipt.SampleRecord, 0, len(trans))
	}
	c.lent = receiptSlabs{samples: samples, aggs: aggs, recs: recs, trans: trans}
	return samples, aggs
}

// count counts one logged entry of the path at state into the path's
// drain scratch, listing the path in order at its first.
func (c *Collector) count(order []drainEntry, state uint32) []drainEntry {
	cd := &c.cold[state]
	if cd.n == 0 {
		order = append(order, drainEntry{id: cd.id, state: state})
	}
	cd.n++
	return order
}

// offsets puts a log's paths into PathID order and turns each path's
// count into its offset in the log's slab.
func (c *Collector) offsets(order []drainEntry) []drainEntry {
	slices.SortFunc(order, compareDrainEntries)
	off := uint32(0)
	for _, o := range order {
		cd := &c.cold[o.state]
		off, cd.n = off+cd.n, off
	}
	c.order = order
	return order
}

func compareDrainEntries(a, b drainEntry) int {
	if c := a.id.Compare(b.id); c != 0 {
		return c
	}
	return int(a.state) - int(b.state)
}

// Recycle hands the memory of the latest Drain/Flush result back for
// reuse: the outer slices and the slabs the receipts' records are cut
// from. Only call with the exact slices that call returned, and only
// when nothing retains them or their records — retaining callers (the
// Processor, the windowed store) simply never call it. Kept slices are
// cleared, so a spare pins no record slab of the epoch it carried.
func (c *Collector) Recycle(samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
	if sameArray(samples, c.lent.samples) && cap(c.lent.recs) > cap(c.spare.recs) {
		c.spare.recs = c.lent.recs[:0]
	}
	if sameArray(aggs, c.lent.aggs) && cap(c.lent.trans) > cap(c.spare.trans) {
		c.spare.trans = c.lent.trans[:0]
	}
	c.lent = receiptSlabs{}
	if cap(samples) > cap(c.spare.samples) {
		clear(samples[:cap(samples)])
		c.spare.samples = samples[:0]
	}
	if cap(aggs) > cap(c.spare.aggs) {
		clear(aggs[:cap(aggs)])
		c.spare.aggs = aggs[:0]
	}
}

// sameArray reports whether a and b share their backing array.
func sameArray[T any](a, b []T) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// Memory reports the §7.1 memory accounting: the bytes the collector
// holds, by capacity, and the peak pre-marker buffer over its paths.
func (c *Collector) Memory() MemoryStats {
	m := MemoryStats{
		ActivePaths:           c.live,
		TempBufferPeakEntries: c.tempHighWater,
		MonitoringCacheBytes: cap(c.hot)*int(unsafe.Sizeof(pathHot{})) +
			cap(c.recs)*int(unsafe.Sizeof([]receipt.SampleRecord(nil))) +
			cap(c.cold)*int(unsafe.Sizeof(pathCold{})) +
			cap(c.index)*int(unsafe.Sizeof(uint64(0))) +
			cap(c.free)*int(unsafe.Sizeof(uint32(0))),
		DispatchBytes: int(unsafe.Sizeof(*c) + unsafe.Sizeof(*c.cache) + unsafe.Sizeof(*c.sub)),
	}
	records := 0
	for i, buf := range c.recs {
		records += cap(buf)
		if c.hot[i].flags&pathLive != 0 {
			m.TempBufferPeakEntries = max(m.TempBufferPeakEntries, len(buf)-int(c.hot[i].markStart))
		}
	}
	records += cap(c.chunk) + c.deadPieces*pieceRecords + cap(c.transLog) + cap(c.spare.recs) + cap(c.spare.trans)
	m.RecordBufferBytes = records*int(unsafe.Sizeof(receipt.SampleRecord{})) +
		cap(c.sampleLog)*int(unsafe.Sizeof(loggedSample{})) +
		cap(c.aggLog)*int(unsafe.Sizeof(loggedAgg{})) +
		cap(c.pending)*int(unsafe.Sizeof(pendingAgg{})) +
		cap(c.order)*int(unsafe.Sizeof(drainEntry{})) +
		cap(c.spare.samples)*int(unsafe.Sizeof(receipt.SampleReceipt{})) +
		cap(c.spare.aggs)*int(unsafe.Sizeof(receipt.AggReceipt{}))
	m.TempBufferPeakBytes = m.TempBufferPeakEntries * receipt.SampleRecordBytes
	return m
}

// Stats returns (packets observed, packets that matched no prefix).
func (c *Collector) Stats() (observed, unclassified uint64) {
	return c.observed, c.unclassified
}

// MemoryStats is the §7.1 memory-budget breakdown of a collector,
// measured from what it holds rather than modelled.
type MemoryStats struct {
	// ActivePaths is the number of paths with live state.
	ActivePaths int
	// MonitoringCacheBytes is the per-path state and its index: the
	// paper's "PathID, AggID, and PktCnt — roughly 20 bytes" per path,
	// as this collector lays it out (the hot entry, the out-of-line
	// PathID, the record buffer's header, the index slots).
	MonitoringCacheBytes int
	// RecordBufferBytes is every buffer of 〈PktID, Time〉 records and
	// receipts the collector holds, by capacity: the per-path record
	// buffers (Algorithm 1's pre-marker buffer and Algorithm 2's J
	// window), the receipt logs awaiting a drain, and recycled slabs.
	RecordBufferBytes int
	// DispatchBytes is the fixed part: the classification cache, the
	// sub-batch scratch and the collector itself.
	DispatchBytes int
	// TempBufferPeakEntries is the high-water mark of the delay
	// sampler's temporary packet buffer across paths (entries).
	TempBufferPeakEntries int
	// TempBufferPeakBytes converts the peak to bytes at the wire size
	// of one 〈PktID, Time〉 record.
	TempBufferPeakBytes int
}

// minIndexSize is the key index's size before its first growth.
const minIndexSize = 64

// The key index is open-addressed with linear probing, at most three
// quarters full. A slot holds the key hash's high 32 bits over the
// path's index + 1; an empty slot is 0. The tag lets a probe skip the
// paths a key does not name without touching their out-of-line state.
// It costs 8 to 16 bytes a path; a map from the 10-byte key to the
// index costs 17 bytes a slot at up to 7/8 load, 19 to 39 a path, which
// the 128-byte budget of TestMemoryMatchesLiveHeap cannot spare.

// keyHash hashes a path key for the index.
func keyHash(k packet.PathKey) uint64 {
	addrs := uint64(binary.BigEndian.Uint32(k.Src.Addr[:]))<<32 | uint64(binary.BigEndian.Uint32(k.Dst.Addr[:]))
	return hashing.Mix64(addrs ^ (uint64(k.Src.Bits)<<8|uint64(k.Dst.Bits))*0x9e3779b97f4a7c15)
}

// lookup returns the index of key's path state, if it has one.
func (c *Collector) lookup(key packet.PathKey) (uint32, bool) {
	h := keyHash(key)
	tag := h >> 32 << 32
	mask := uint64(len(c.index) - 1)
	for i := h & mask; c.index[i] != 0; i = (i + 1) & mask {
		if slot := c.index[i]; slot&^(1<<32-1) == tag {
			if s := uint32(slot) - 1; c.cold[s].id.Key == key {
				return s, true
			}
		}
	}
	return 0, false
}

// insert adds key → state to the index, which must not hold key.
func (c *Collector) insert(key packet.PathKey, state uint32) {
	if 4*(c.live+1) > 3*len(c.index) {
		c.reindex(2 * len(c.index))
	}
	h := keyHash(key)
	mask := uint64(len(c.index) - 1)
	i := h & mask
	for c.index[i] != 0 {
		i = (i + 1) & mask
	}
	c.index[i] = h>>32<<32 | uint64(state+1)
}

// reindex rebuilds the index at size slots from the live paths.
func (c *Collector) reindex(size int) {
	if size != len(c.index) {
		//lint:ignore hotpath the index doubles, amortized over the paths that filled it
		c.index = make([]uint64, size)
	} else {
		clear(c.index)
	}
	mask := uint64(size - 1)
	for s := range c.hot {
		if c.hot[s].flags&pathLive == 0 {
			continue
		}
		h := keyHash(c.cold[s].id.Key)
		i := h & mask
		for c.index[i] != 0 {
			i = (i + 1) & mask
		}
		c.index[i] = h>>32<<32 | uint64(s+1)
	}
}

// stateIndex returns the index of key's path state, creating the state
// — at a freed index when there is one — on the path's first packet.
func (c *Collector) stateIndex(key packet.PathKey) uint32 {
	if s, ok := c.lookup(key); ok {
		return s
	}
	var s uint32
	if n := len(c.free); n > 0 {
		s, c.free = c.free[n-1], c.free[:n-1]
	} else {
		s = uint32(len(c.hot))
		c.hot = append(c.hot, pathHot{})
		c.recs = append(c.recs, nil)
		c.cold = append(c.cold, pathCold{})
	}
	c.cold[s] = pathCold{id: c.cfg.PathID(key)}
	if c.cold[s].id.Key != key {
		panic("core: CollectorConfig.PathID returned a PathID whose Key is not the key it was given")
	}
	c.insert(key, s)
	c.hot[s].flags = pathLive
	c.live++
	return s
}
