// Package engine is the epoch pipeline — the one segment loop and the
// one drain-and-verify step every mode of the system runs:
//
//	collect half: Source → Sim (RunSegment) → AfterSegment, per segment;
//	              then flush → CloseAt → every HOP's seals reach the sink
//	verify half:  per Feed: fetch since cursor → classify → IngestBundle
//	              + SealHOP; then verify what is ready → Evict
//
// vpm-node and the experiments run both halves in one process, each
// verify step overlapping the next segment (Collect.Run with a Verify);
// a fleet collector runs the first alone, a fleet verifier shard the
// second (Verify.Run). The seams are the packet Source, the transport
// (the EpochSink the collect half publishes through and the Feeds the
// verify half fetches from: BusTransport, HTTPFeed, or the window's own
// Sink, where publishing is ingesting), the Store, and the Checks.
//
// The stream-end rule lives here and nowhere else. An epoch's report
// depends on whether the stream had been declared over when the epoch
// was verified: WindowedStore.FinishStream turns on the tail-complete
// evidence rule, which only the last two epochs can meet. Those two
// become Ready at the terminal seal, so a verify step that ran between
// the last seal and FinishStream would judge epoch terminal−1 without
// the rule, and the verdict bytes would depend on scheduling. Hence:
// no verify step runs between the last seal and FinishStream
// (Collect.Run joins the step in flight before it flushes and closes),
// and a verify half that cannot see the seals but knows the terminal
// up front (Verify.Run) holds epochs ≥ terminal−1 until every feed is
// drained.
package engine

import (
	"context"

	"vpm/internal/core"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/trace"
)

// Source is the packet-source seam: each call yields the next
// segment's packets in send order and its horizon — a promise that
// every later packet is sent at or after it — until ok is false.
type Source func() (pkts []packet.Packet, horizonNS int64, ok bool)

// EpochSource slices gen at epoch boundaries, one segment per interval,
// for the given number of epochs or until stop is closed: a clean stop
// is the stream ending early.
func EpochSource(gen *trace.Generator, intervalNS int64, epochs int, stop <-chan struct{}) Source {
	e := 0
	return func() ([]packet.Packet, int64, bool) {
		select {
		case <-stop:
			return nil, 0, false
		default:
		}
		if e == epochs {
			return nil, 0, false
		}
		e++
		horizon := int64(e) * intervalNS
		return gen.NextChunk(horizon), horizon, true
	}
}

// Sim is the simulator the collect half drives: it replays one segment
// across the network into the observers, withholding the observations
// that could still interleave with packets sent at or after horizonNS.
type Sim func(pkts []packet.Packet, observers map[receipt.HOPID]netsim.Observer, horizonNS int64) error

// noHorizon promises that no packet follows: nothing is withheld.
const noHorizon = int64(1) << 62

// NewSim simulates a topology — a deployment's Topo and Table, or a
// fleet world's — classifying packets with table. truth, if non-nil,
// receives every segment's ground truth.
func NewSim(t *netsim.Topology, table *packet.Table, truth func(*netsim.Result)) (Sim, error) {
	r, err := netsim.NewTopoRunner(t, table)
	if err != nil {
		return nil, err
	}
	return func(pkts []packet.Packet, observers map[receipt.HOPID]netsim.Observer, horizonNS int64) error {
		res, err := r.RunSegment(pkts, observers, horizonNS)
		if err == nil && truth != nil {
			truth(res)
		}
		return err
	}, nil
}

// Collect is the collect half: a set of HOPs' collectors behind epoch
// clocks, driven segment by segment, every sealed (HOP, epoch) handed
// to the sink.
type Collect struct {
	// Observers are the epoch-clocked collectors the simulator feeds.
	// Wrap entries (netsim.Wear) before Run to mount data-plane
	// adversaries.
	Observers map[receipt.HOPID]netsim.Observer
	// AfterSegment, if set, runs after every simulated segment — the
	// place for real-time pacing and wall-clock accounting, which the
	// engine itself never does. Its error aborts the run.
	AfterSegment func(context.Context) error
	// Segments and Packets count what Run simulated; Terminal is the
	// common terminal epoch it sealed.
	Segments, Packets int
	Terminal          core.EpochID

	driver  *core.EpochDriver
	closeAt core.EpochID
}

// NewCollect puts the named HOPs' collectors of dep behind epoch
// clocks of the given interval feeding sink. closeAt floors the common
// terminal epoch (core.EpochDriver.CloseAt): processes that each drive
// a slice of the HOPs agree on it up front; 0 takes the natural one.
func NewCollect(dep *core.Deployment, hops []receipt.HOPID, intervalNS int64, closeAt core.EpochID, sink core.EpochSink) (*Collect, error) {
	d, err := core.NewEpochDriverFor(dep, hops, intervalNS, sink)
	if err != nil {
		return nil, err
	}
	return &Collect{Observers: d.Observers(), driver: d, closeAt: closeAt}, nil
}

// Run drives the stream to its end: every segment src yields is
// simulated, then the withheld observations are flushed and every HOP
// seals through the terminal epoch. With ver non-nil the verify half
// runs in the same process: one step after each segment, overlapping
// the next segment's simulation and joined at its end — so the collect
// half is never more than one segment ahead, and a verification failure
// stops the run at the next segment boundary — and the stream ends in
// the order the stream-end rule demands: join, flush, CloseAt,
// FinishStream, final step. Cancelling ctx aborts at the next boundary
// without sealing anything further.
func (c *Collect) Run(ctx context.Context, src Source, sim Sim, ver *Verify) error {
	var step chan error // the verify step in flight, nil when none is
	join := func() error {
		if step == nil {
			return nil
		}
		err := <-step
		step = nil
		return err
	}
	defer join() // no step outlives Run

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		pkts, horizon, ok := src()
		if !ok {
			break
		}
		err := sim(pkts, c.Observers, horizon)
		if jerr := join(); err == nil {
			err = jerr
		}
		if err != nil {
			return err
		}
		c.Segments++
		c.Packets += len(pkts)
		if ver != nil {
			step = make(chan error, 1)
			go func(done chan<- error) {
				_, err := ver.step(ctx)
				done <- err
			}(step)
		}
		if c.AfterSegment != nil {
			if err := c.AfterSegment(ctx); err != nil {
				return err
			}
		}
	}
	if err := join(); err != nil {
		return err
	}
	if err := sim(nil, c.Observers, noHorizon); err != nil {
		return err
	}
	c.Terminal = c.driver.CloseAt(c.closeAt)
	if ver == nil {
		return nil
	}
	return ver.finish(ctx)
}
