package core

import (
	"fmt"

	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// This file adds the continuous-operation lifecycle to the collection
// pipeline. The paper's protocol is interval-based — HOPs emit marker
// receipts per time interval and domains are judged per interval — so
// a production deployment never runs as a one-shot batch: it rotates
// through an endless stream of epochs, sealing each one's receipts
// while ingest of the next continues.
//
// The load-bearing invariant: **rotation never changes the receipt
// stream, only its packaging.** RotateInterval drains the receipts
// finalized during the closing epoch (Drain semantics) without forcing
// any state to finalize early: an open aggregate keeps counting across
// the boundary and lands in the epoch where its cutting point closes
// it; a packet waiting in the Algorithm 1 temporary buffer is decided
// by the next marker and lands in that marker's epoch. Concatenating
// every epoch's receipts therefore reproduces, byte for byte, the
// receipt stream a one-shot run would have flushed — verified by
// TestBatchContinuousEquivalence.

// EpochID is the ordinal of one reporting interval. Epoch e covers
// local observation times [e·interval, (e+1)·interval).
type EpochID uint64

// EpochConfig parameterizes continuous multi-interval operation: the
// epoch clock and the receipt-retention window.
type EpochConfig struct {
	// IntervalNS is the epoch length in simulated nanoseconds — the
	// paper's reporting interval.
	IntervalNS int64
	// Retention is how many sealed-and-verified epochs the windowed
	// receipt store keeps before eviction (the GC N−k knob). Unverified
	// epochs are never evicted regardless of age.
	Retention int
}

// Validate rejects configurations that would silently misbehave: a
// zero or negative interval never rotates, and retention below one
// epoch would evict the epoch currently being verified.
func (c EpochConfig) Validate() error {
	if c.IntervalNS <= 0 {
		return fmt.Errorf("core: epoch interval %dns must be positive", c.IntervalNS)
	}
	if c.Retention < 1 {
		return fmt.Errorf("core: retention %d epochs is below the 1-epoch minimum", c.Retention)
	}
	return nil
}

// RotateInterval seals the collector's current epoch: it drains the
// receipts finalized during it (in deterministic PathID-sorted order,
// like Drain) and opens the next epoch. Open aggregates and pending
// sampler buffers carry across the rotation untouched, so the
// concatenation of every epoch's receipts is byte-identical to a
// one-shot run's.
func (c *Collector) RotateInterval() (EpochID, []receipt.SampleReceipt, []receipt.AggReceipt) {
	e := c.epoch
	c.epoch++
	samples, aggs := c.Drain()
	return e, samples, aggs
}

// CloseEpoch finalizes all open state into the collector's current
// epoch and returns it — the terminal rotation at end of stream.
func (c *Collector) CloseEpoch() (EpochID, []receipt.SampleReceipt, []receipt.AggReceipt) {
	e := c.epoch
	c.epoch++
	samples, aggs := c.Flush()
	return e, samples, aggs
}

// EpochSink receives one HOP's sealed epoch: every receipt the HOP
// finalized during that interval. The EpochDriver invokes it from the
// goroutine replaying that HOP's observations, so distinct HOPs' sinks
// run concurrently — implementations must be safe for concurrent use
// (WindowedStore.IngestSealed is). Within one HOP, epochs arrive in
// chronological order.
type EpochSink func(hop receipt.HOPID, epoch EpochID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt)

// EpochCollector wraps one HOP's collector in an epoch clock: it
// forwards observations untouched, and when an observation's local
// timestamp crosses the current epoch's end it rotates the underlying
// collector and hands the sealed epoch to the sink. Epochs are local —
// each HOP rotates on its own (possibly skewed) observation clock,
// exactly as a real deployment's HOPs rotate on their own NTP-
// disciplined clocks.
type EpochCollector struct {
	col        *Collector
	sink       EpochSink
	intervalNS int64
	end        int64 // current epoch's end time (exclusive)
	closed     bool
	terminal   EpochID // last sealed epoch, valid once closed
}

// NewEpochCollector wraps col with an epoch clock of the given
// interval. Epoch 0 covers observation times (-inf, intervalNS): skew
// may pull a HOP's first observations slightly negative, and they
// belong to the first interval, not an unreachable "epoch -1".
func NewEpochCollector(col *Collector, intervalNS int64, sink EpochSink) (*EpochCollector, error) {
	if intervalNS <= 0 {
		return nil, fmt.Errorf("core: epoch interval %dns must be positive", intervalNS)
	}
	if sink == nil {
		return nil, fmt.Errorf("core: epoch collector needs a sink")
	}
	return &EpochCollector{col: col, sink: sink, intervalNS: intervalNS, end: intervalNS}, nil
}

// rotateTo rotates (possibly several times, emitting empty epochs for
// idle intervals) until t falls inside the open epoch.
func (e *EpochCollector) rotateTo(t int64) {
	for t >= e.end {
		epoch, samples, aggs := e.col.RotateInterval()
		e.sink(e.col.HOP(), epoch, samples, aggs)
		e.end += e.intervalNS
	}
}

// Observe forwards one observation, rotating first if its timestamp
// has crossed into a later epoch.
func (e *EpochCollector) Observe(pkt *packet.Packet, digest uint64, tNS int64) {
	e.rotateTo(tNS)
	e.col.Observe(pkt, digest, tNS)
}

// ObserveBatch forwards an arrival-ordered batch, splitting it at
// every epoch boundary it straddles so each sub-batch lands in the
// epoch its timestamps belong to.
func (e *EpochCollector) ObserveBatch(batch []netsim.Observation) {
	for len(batch) > 0 {
		if last := batch[len(batch)-1].TimeNS; last < e.end {
			e.col.ObserveBatch(batch)
			return
		}
		// Find the first observation at or past the boundary. Replay
		// timestamps may regress slightly under jitter, so split at the
		// first crossing rather than binary-searching.
		i := 0
		for i < len(batch) && batch[i].TimeNS < e.end {
			i++
		}
		if i > 0 {
			e.col.ObserveBatch(batch[:i])
		}
		batch = batch[i:]
		if len(batch) > 0 {
			e.rotateTo(batch[0].TimeNS)
		}
	}
}

// Close seals the final, partially elapsed epoch: it flushes all open
// collector state and hands the terminal epoch to the sink. Call once,
// after the last observation. Returns the sealed terminal epoch.
func (e *EpochCollector) Close() EpochID {
	if e.closed {
		return e.terminal
	}
	e.closed = true
	epoch, samples, aggs := e.col.CloseEpoch()
	e.sink(e.col.HOP(), epoch, samples, aggs)
	e.terminal = epoch
	return epoch
}

// sealEmptyThrough emits empty epochs after Close so every HOP of a
// deployment ends on the same terminal epoch: propagation delay means
// a downstream HOP's observation clock runs a few milliseconds behind
// the source's, so at shutdown the HOPs' epoch counters can differ by
// one. The trailing HOPs report empty intervals — receipts for traffic
// that never reached them cannot exist — which lets the final epoch
// seal across all HOPs and be verified.
func (e *EpochCollector) sealEmptyThrough(last EpochID) {
	for e.terminal < last {
		e.terminal++
		e.sink(e.col.HOP(), e.terminal, nil, nil)
	}
}

// EpochDriver runs a whole Deployment continuously: every HOP's
// collector is wrapped in an EpochCollector sharing one interval and
// one sink. Pass Observers() to the simulator (one run or many
// consecutive segments), then Close() after the last segment to seal
// the terminal epochs.
type EpochDriver struct {
	dep  *Deployment
	cols map[receipt.HOPID]*EpochCollector
}

// NewEpochDriver wraps every collector of dep in an epoch clock of the
// given interval feeding sink.
func NewEpochDriver(dep *Deployment, intervalNS int64, sink EpochSink) (*EpochDriver, error) {
	return NewEpochDriverFor(dep, dep.HOPs(), intervalNS, sink)
}

// NewEpochDriverFor wraps only the named HOPs' collectors of dep — the
// slice of the deployment one fleet collector process drives, when the
// deployment's HOPs are split across per-domain processes. Every named
// HOP must have a collector in dep. Distinct processes driving
// disjoint HOP subsets of the same deterministic world produce, in
// union, exactly the epochs one whole-deployment driver would.
func NewEpochDriverFor(dep *Deployment, hops []receipt.HOPID, intervalNS int64, sink EpochSink) (*EpochDriver, error) {
	d := &EpochDriver{dep: dep, cols: make(map[receipt.HOPID]*EpochCollector, len(hops))}
	for _, id := range hops {
		col, ok := dep.Collectors[id]
		if !ok {
			return nil, fmt.Errorf("core: epoch driver: deployment has no collector for %v", id)
		}
		ec, err := NewEpochCollector(col, intervalNS, sink)
		if err != nil {
			return nil, err
		}
		d.cols[id] = ec
	}
	return d, nil
}

// Observers adapts the epoch-wrapped collectors to the simulator.
func (d *EpochDriver) Observers() map[receipt.HOPID]netsim.Observer {
	out := make(map[receipt.HOPID]netsim.Observer, len(d.cols))
	for id, ec := range d.cols {
		out[id] = ec
	}
	return out
}

// Close seals every HOP's terminal epoch and aligns all HOPs onto one
// common terminal (HOPs whose clock had not yet crossed the last
// boundary seal empty intervals). Call once, after the last simulation
// segment has fully replayed. Returns the common terminal epoch.
func (d *EpochDriver) Close() EpochID {
	return d.CloseAt(0)
}

// CloseAt is Close with a floor on the common terminal: every HOP
// seals empty intervals up to at least epoch `last`. A driver covering
// only a HOP subset cannot see the other processes' natural terminals,
// so fleet collectors agree on a spec-derived terminal up front and
// close at it — every process's store then seals the same epoch range
// and the union is verifiable.
func (d *EpochDriver) CloseAt(last EpochID) EpochID {
	for _, ec := range d.cols {
		if t := ec.Close(); t > last {
			last = t
		}
	}
	for _, ec := range d.cols {
		ec.sealEmptyThrough(last)
	}
	return last
}
