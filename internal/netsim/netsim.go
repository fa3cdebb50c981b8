// Package netsim simulates the inter-domain forwarding substrate of
// the paper's setup (§2): a directed domain graph with a route table
// (Topology), of which Figure 1's S → L → X → N → D — stub domains S
// and D contributing one HOP each, every transit domain an ingress and
// an egress HOP — is the one-route case a Path builds. Packets traverse
// inter-domain links (propagation delay, jitter, optional loss) and
// intra-domain crossings (base delay, optional congestion via a
// delaymodel.Queue, optional loss, jitter-induced reordering, per-HOP
// clock skew).
//
// The simulator computes every packet's observation time at every HOP,
// then replays each HOP's observations in arrival order to the
// attached Observer (the VPM collector, a baseline, or nothing for a
// non-deploying domain). Ground truth — per-domain loss counts and
// true per-packet delays — is recorded on the side for the
// experiments' accuracy metrics.
//
// Concurrency: the per-packet forwarding sweep is serial by design —
// loss processes and congestion queues are stateful, so drop and delay
// decisions are only deterministic when consulted in send order, and
// ground truth accumulates in that same sweep without atomics. The
// expensive phases around it run in parallel: packet digests are
// computed by a chunked worker pool, and each HOP's observation replay
// runs in its own goroutine (bounded by a worker pool), delivering that
// HOP's observations in arrival order as batches. HOPs that share an
// Observer instance are grouped into one goroutine, so an observer
// never sees concurrent calls; distinct observers must tolerate running
// concurrently with each other.
package netsim

import (
	"cmp"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"vpm/internal/lossmodel"
	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// DelaySource yields a per-packet delay for a congested crossing.
// delaymodel.Queue implements it. Arrival times are non-decreasing in
// packet send order but may regress slightly under upstream jitter;
// implementations must tolerate that (delaymodel.Queue does).
type DelaySource interface {
	DelayOf(tNS int64, pktBytes int) int64
}

// Observer receives one HOP's packet observations in arrival order.
// The packet pointer is valid only for the duration of the call
// (NoCopy semantics); digest is the packet's 64-bit ID under the
// deployment seed.
type Observer interface {
	Observe(pkt *packet.Packet, digest uint64, tNS int64)
}

// Observation is one packet observation at a HOP: the packet, its
// 64-bit digest under the deployment seed, and the HOP's (possibly
// skewed) observation timestamp. The packet pointer is valid only for
// the duration of the ObserveBatch call that carries it.
type Observation struct {
	Pkt    *packet.Packet
	Digest uint64
	TimeNS int64
}

// BatchObserver is the batched extension of Observer: observers that
// implement it receive observations in arrival-order slices, amortizing
// dispatch and classification over the batch instead of paying one
// virtual call per packet. core.Collector and core.EpochCollector
// implement it; Deliver is the compatibility shim for observers that
// only implement single-packet Observe.
type BatchObserver interface {
	ObserveBatch(batch []Observation)
}

// Deliver feeds a batch of observations to obs: through ObserveBatch
// when obs implements BatchObserver, one Observe call per packet
// otherwise. The batch must be in arrival order.
func Deliver(obs Observer, batch []Observation) {
	if bo, ok := obs.(BatchObserver); ok {
		bo.ObserveBatch(batch)
		return
	}
	for i := range batch {
		obs.Observe(batch[i].Pkt, batch[i].Digest, batch[i].TimeNS)
	}
}

// DomainSpec describes one domain on the path.
type DomainSpec struct {
	// Name labels the domain ("S", "L", "X", ...).
	Name string
	// Loss is the intra-domain loss process (nil: lossless).
	Loss lossmodel.Process
	// Delay is the intra-domain congestion delay source (nil: only
	// BaseDelayNS applies). Stub domains never use it.
	Delay DelaySource
	// BaseDelayNS is the constant intra-domain transit delay.
	BaseDelayNS int64
	// ReorderJitterNS adds uniform per-packet jitter in
	// [0, ReorderJitterNS] to the crossing, which reorders packets
	// that arrive closer together than the jitter.
	ReorderJitterNS int64
	// IngressSkewNS / EgressSkewNS offset the observation clocks of
	// the domain's HOPs (imperfect NTP sync, §4).
	IngressSkewNS, EgressSkewNS int64
	// Preferential, if non-nil, is consulted for every packet
	// crossing the domain; returning true exempts the packet from the
	// domain's loss and congestion delay. This models the "strategic
	// treatment" attack of §3.2 (only exploitable when the adversary
	// can predict which packets are measured).
	Preferential func(pkt *packet.Packet, digest uint64) bool
}

// LinkSpec describes one inter-domain link.
type LinkSpec struct {
	// DelayNS is the nominal propagation delay.
	DelayNS int64
	// JitterNS adds uniform per-packet jitter in [0, JitterNS].
	JitterNS int64
	// MaxDiffNS is the timestamp-difference bound the two adjacent
	// HOPs advertise for this link (must cover delay + jitter + skew
	// for honest receipts to stay consistent).
	MaxDiffNS int64
	// Loss makes the link itself faulty (nil: healthy).
	Loss lossmodel.Process
}

// Path builds a chain of domains: the paper's Figure 1 shape, kept as
// plain slices so callers can perturb Domains[i] and Links[i] in place.
// It is not a second network model — Topology compiles it to the
// one-route topology every simulation and deployment runs on.
type Path struct {
	// Domains along the path; the first and last are stubs with a
	// single HOP (egress and ingress respectively).
	Domains []DomainSpec
	// Links connect consecutive domains; len(Links) ==
	// len(Domains)-1.
	Links []LinkSpec
	// Seed drives packet digests and all simulation randomness.
	Seed uint64
}

// Validate checks structural invariants.
func (p *Path) Validate() error {
	if len(p.Domains) < 2 {
		return fmt.Errorf("netsim: need at least 2 domains, have %d", len(p.Domains))
	}
	if len(p.Links) != len(p.Domains)-1 {
		return fmt.Errorf("netsim: %d domains need %d links, have %d",
			len(p.Domains), len(p.Domains)-1, len(p.Links))
	}
	return nil
}

// NumHOPs returns the number of HOPs on the path: one for each stub
// end plus two per transit domain (paper Figure 1: 5 domains → 8
// HOPs).
func (p *Path) NumHOPs() int { return 2 + 2*(len(p.Domains)-2) }

// HOPsOf returns the HOP IDs of domain d (1-based HOP numbering along
// the path, matching the paper's figure). Stub domains return equal
// ingress and egress.
func (p *Path) HOPsOf(d int) (ingress, egress receipt.HOPID) {
	switch {
	case d == 0:
		return 1, 1
	case d == len(p.Domains)-1:
		n := receipt.HOPID(p.NumHOPs())
		return n, n
	default:
		in := receipt.HOPID(2 * d)
		return in, in + 1
	}
}

// Topology compiles the chain as it stands: domain i is linked to
// domain i+1 — so link i's HOP pair 2i+1 / 2i+2 is HOPsOf's numbering —
// and one default route crosses every link: a Path forwards every
// packet, whatever its addresses. The specs are copied; perturb the
// path first.
func (p *Path) Topology() (*Topology, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{Domains: slices.Clone(p.Domains), Seed: p.Seed}
	var route Route
	for i, l := range p.Links {
		t.Links = append(t.Links, TopoLink{From: i, To: i + 1, LinkSpec: l})
		route.Links = append(route.Links, i)
	}
	t.Routes = []Route{route}
	return t, nil
}

// DomainTruth is the ground truth recorded for one domain.
type DomainTruth struct {
	Name          string
	In, Out       uint64
	DroppedInside uint64
	TrueDelaysNS  []float64 // egress minus ingress true time per delivered packet
}

// LossRate returns the domain's actual loss rate for this run.
func (d DomainTruth) LossRate() float64 {
	if d.In == 0 {
		return 0
	}
	return float64(d.DroppedInside) / float64(d.In)
}

// hopObservation is one (packet, time) event at a HOP.
type hopObservation struct {
	pktIdx int32
	timeNS int64
}

// Run drives pkts (in send order) across the chain in one shot: see
// TopoRunner.Run. It compiles the path on every call, so perturbations
// made since the last run take effect.
func (p *Path) Run(pkts []packet.Packet, observers map[receipt.HOPID]Observer) (*Result, error) {
	t, err := p.Topology()
	if err != nil {
		return nil, err
	}
	return t.Run(nil, pkts, observers)
}

// NewRunner compiles the path and prepares its persistent simulation
// state. A chain's only route is the default one, so no prefix table is
// needed.
func NewRunner(p *Path) (*TopoRunner, error) {
	t, err := p.Topology()
	if err != nil {
		return nil, err
	}
	return NewTopoRunner(t, nil)
}

// pendingObs is one withheld observation, self-contained.
type pendingObs struct {
	pkt    packet.Packet
	digest uint64
	timeNS int64
}

// replayer owns the arrival-order replay of per-HOP observation
// streams: the per-HOP minimum observation delays that bound what a
// future packet can still interleave with, and the withheld
// observations carried across segment boundaries.
type replayer struct {
	// minObsNS is each HOP's minimum observation delay after a
	// packet's send time: propagation + base transit (jitter,
	// congestion and queueing only add) plus the HOP's clock skew.
	minObsNS []int64
	// pending holds each HOP's withheld observations (packet values
	// copied out of the dead segment slice), time-sorted.
	pending [][]pendingObs
}

// newReplayer sizes the replay state for HOP IDs 1..nHops.
func newReplayer(nHops int) *replayer {
	return &replayer{
		minObsNS: make([]int64, nHops+1),
		pending:  make([][]pendingObs, nHops+1),
	}
}

// replay delivers every HOP's deliverable observations in arrival
// order: HOPs replay concurrently (one goroutine per observer group,
// bounded by a worker pool); within a HOP, observations are delivered
// in arrival-order batches through the BatchObserver fast path. HOPs
// that share an Observer instance replay sequentially in one
// goroutine, preserving the serial semantics an aliased observer
// expects. Observations past the horizon (plus the HOP's minimum
// observation delay) are withheld for the next segment's merge.
func (r *replayer) replay(obsPerHop [][]hopObservation, observers map[receipt.HOPID]Observer, pkts []packet.Packet, digests []uint64, horizonNS int64) {
	nHops := len(r.minObsNS) - 1
	var groups []replayGroup
	for hop := 1; hop <= nHops; hop++ {
		obs, ok := observers[receipt.HOPID(hop)]
		if !ok || obs == nil {
			continue
		}
		if gi := findGroup(groups, obs); gi >= 0 {
			groups[gi].hops = append(groups[gi].hops, hop)
		} else {
			groups = append(groups, replayGroup{obs: obs, hops: []int{hop}})
		}
	}
	sem := make(chan struct{}, replayWorkers())
	var wg sync.WaitGroup
	for gi := range groups {
		g := &groups[gi]
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			// The scratch holds one delivery batch: no more than the
			// largest HOP of the group can deliver this segment.
			size := 0
			for _, hop := range g.hops {
				size = max(size, len(r.pending[hop])+len(obsPerHop[hop]))
			}
			batch := make([]Observation, 0, min(size, ReplayBatchSize))
			for _, hop := range g.hops {
				events := obsPerHop[hop]
				sortArrivals(events)
				// Everything observable past the cutoff could still
				// interleave with a future packet's observation: hold
				// it back for the next segment's merge. Ties at the
				// cutoff are safe to deliver — a future observation at
				// the same timestamp sorts after them (stable order is
				// insertion order, and future packets insert later).
				cutoff := horizonNS + r.minObsNS[hop]
				pend := r.pending[hop]
				pn := len(pend)
				for pn > 0 && pend[pn-1].timeNS > cutoff {
					pn--
				}
				en := len(events)
				for en > 0 && events[en-1].timeNS > cutoff {
					en--
				}
				// Merge the two time-sorted deliverable runs, pending
				// first on ties (earlier insertion order).
				batch = batch[:0]
				pi, ei := 0, 0
				for pi < pn || ei < en {
					if pi < pn && (ei >= en || pend[pi].timeNS <= events[ei].timeNS) {
						po := &pend[pi]
						batch = append(batch, Observation{Pkt: &po.pkt, Digest: po.digest, TimeNS: po.timeNS})
						pi++
					} else {
						e := events[ei]
						batch = append(batch, Observation{Pkt: &pkts[e.pktIdx], Digest: digests[e.pktIdx], TimeNS: e.timeNS})
						ei++
					}
					if len(batch) == ReplayBatchSize {
						Deliver(g.obs, batch)
						batch = batch[:0]
					}
				}
				if len(batch) > 0 {
					Deliver(g.obs, batch)
					batch = batch[:0]
				}
				r.pending[hop] = withhold(append(pend[:0], pend[pn:]...), events[en:], pkts, digests)
			}
		}()
	}
	wg.Wait()
}

// withhold returns what a HOP carries into the next segment: pend,
// observations withheld earlier, and events, this segment's withheld
// tail, copied out of the segment's packets (which do not outlive it)
// and merged into time order in pend's storage. Both runs are
// time-sorted, but their concatenation is not — an old pending
// observation delayed by congestion can carry a later timestamp than a
// newly withheld one. The merge runs back to front, pending first on
// ties (their insertion order).
func withhold(pend []pendingObs, events []hopObservation, pkts []packet.Packet, digests []uint64) []pendingObs {
	k, m := len(pend), len(events)
	rest := slices.Grow(pend, m)[:k+m]
	for i, j, w := k-1, m-1, k+m-1; j >= 0; w-- {
		if e := events[j]; i < 0 || rest[i].timeNS <= e.timeNS {
			rest[w] = pendingObs{pkt: pkts[e.pktIdx], digest: digests[e.pktIdx], timeNS: e.timeNS}
			j--
		} else {
			rest[w] = rest[i]
			i--
		}
	}
	return rest
}

// sortArrivals puts one HOP's events in arrival order, stably: ties
// keep insertion (packet-index) order. Events are appended in packet
// order at send time plus a jittered path delay, so each sits only a
// few slots from its place, and an insertion sort keyed on timeNS
// finishes in a few moves per event; the strict > keeps it stable.
// Past a budget of 32 moves per event the input is not nearly ordered
// after all, and a stable merge sort finishes the job. It gives the
// same order: the sorted prefix kept its ties in insertion order and
// the suffix is untouched.
func sortArrivals(events []hopObservation) {
	budget := 32 * len(events)
	for i := 1; i < len(events); i++ {
		x := events[i]
		j := i
		for j > 0 && events[j-1].timeNS > x.timeNS {
			events[j] = events[j-1]
			j--
		}
		events[j] = x
		if budget -= i - j; budget < 0 {
			slices.SortStableFunc(events, func(a, b hopObservation) int { return cmp.Compare(a.timeNS, b.timeNS) })
			return
		}
	}
}

// ReplayBatchSize is the observation-slice granularity of the replay
// (and of the throughput measurements, which feed collectors the same
// way): large enough to amortize batch dispatch and keep the
// collector's sub-batches full, small enough that the per-goroutine
// scratch slice (~100 KB) stays cache-friendly. 4096 measured ~10%
// faster than 2048 on the Fig1 workload. A group whose HOPs have fewer
// observations to deliver in a segment gets a scratch only that large.
const ReplayBatchSize = 4096

// replayGroup is the replay work of one observer: all HOPs attached to
// the same Observer instance, replayed sequentially in HOP order.
type replayGroup struct {
	obs  Observer
	hops []int
}

// findGroup returns the index of the group that must also replay obs,
// or -1 for a new group. Comparable observers group by identity.
// Observers of non-comparable dynamic type (e.g. a func type) cannot
// be tested for identity, so they all share one sequential group —
// conservatively preserving the serial-replay guarantee for a closure
// registered under several HOPs, at the cost of parallelism between
// distinct non-comparable observers.
func findGroup(groups []replayGroup, obs Observer) int {
	comparable := reflect.TypeOf(obs).Comparable()
	for i := range groups {
		gc := reflect.TypeOf(groups[i].obs).Comparable()
		if !comparable && !gc {
			return i
		}
		if comparable && gc && groups[i].obs == obs {
			return i
		}
	}
	return -1
}

// replayWorkers bounds the number of concurrently replaying observer
// groups. At least two even on a single-core box, so the race detector
// exercises the concurrent replay path.
func replayWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 2 {
		return n
	}
	return 2
}

// parallelChunks runs fn over [0,n) split into contiguous chunks of at
// least 4096 indices, shared by up to replayWorkers() goroutines, the
// caller among them. fn must only touch its own index range. Its
// allocations do not depend on n: the helpers share one closure, and a
// range too small to split runs as one chunk on the caller.
func parallelChunks(n int, fn func(lo, hi int)) {
	const minChunk = 4096
	workers := max(min(replayWorkers(), n/minChunk), 1)
	chunk := (n + workers - 1) / workers
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		for {
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= n {
				return
			}
			fn(lo, min(lo+chunk, n))
		}
	}
	helper := func() {
		defer wg.Done()
		work()
	}
	wg.Add(workers - 1)
	for range workers - 1 {
		go helper()
	}
	work()
	wg.Wait()
}
