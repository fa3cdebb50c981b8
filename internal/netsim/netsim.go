// Package netsim simulates the inter-domain forwarding substrate of
// the paper's setup (§2): a linear HOP path like Figure 1's
// S → L → X → N → D, where stub domains S and D contribute one HOP
// each and every transit domain contributes an ingress and an egress
// HOP. Packets traverse inter-domain links (propagation delay, jitter,
// optional loss) and intra-domain crossings (base delay, optional
// congestion via a delaymodel.Queue, optional loss, jitter-induced
// reordering, per-HOP clock skew).
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

	"vpm/internal/lossmodel"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
)

// DelaySource yields a per-packet delay for a congested crossing.
// delaymodel.Queue implements it. Arrival times are non-decreasing in
// packet send order but may regress slightly under upstream jitter;
// implementations must tolerate that (delaymodel.Queue does).
type DelaySource interface {
	DelayOf(tNS int64, pktBytes int) int64
}

// FixedDelay is a DelaySource with a constant delay.
type FixedDelay int64

// DelayOf returns the fixed delay.
func (d FixedDelay) DelayOf(int64, int) int64 { return int64(d) }

// Observer receives one HOP's packet observations in arrival order.
// The packet pointer is valid only for the duration of the call
// (NoCopy semantics); digest is the packet's 64-bit ID under the
// deployment seed.
type Observer interface {
	Observe(pkt *packet.Packet, digest uint64, tNS int64)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(pkt *packet.Packet, digest uint64, tNS int64)

// Observe calls f.
func (f ObserverFunc) Observe(pkt *packet.Packet, digest uint64, tNS int64) { f(pkt, digest, tNS) }

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

// Path is a linear inter-domain path.
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

// DomainTruth is the ground truth recorded for one transit domain.
type DomainTruth struct {
	Name            string
	Ingress, Egress receipt.HOPID
	In, Out         uint64
	DroppedInside   uint64
	TrueDelaysNS    []float64 // egress minus ingress true time per delivered packet
}

// LossRate returns the domain's actual loss rate for this run.
func (d DomainTruth) LossRate() float64 {
	if d.In == 0 {
		return 0
	}
	return float64(d.DroppedInside) / float64(d.In)
}

// Result is the outcome of one simulation run.
type Result struct {
	Sent      int
	Delivered int
	// Domains holds ground truth for every domain (stubs included;
	// stubs never drop or delay).
	Domains []DomainTruth
	// LinkDrops counts packets lost on each inter-domain link.
	LinkDrops []uint64
}

// DomainByName returns the truth record for the named domain.
func (r *Result) DomainByName(name string) (*DomainTruth, bool) {
	for i := range r.Domains {
		if r.Domains[i].Name == name {
			return &r.Domains[i], true
		}
	}
	return nil, false
}

// hopObservation is one (packet, time) event at a HOP.
type hopObservation struct {
	pktIdx int32
	timeNS int64
}

// Run drives pkts (in send order) across the path, delivering each
// HOP's observations in arrival-time order to the corresponding
// observer. observers maps HOP ID → Observer; HOPs without an entry
// are non-deploying (partial deployment, §8). Run is deterministic
// given the path seed.
//
// Distinct observers are called concurrently (one goroutine per
// observer, bounded by a worker pool); each individual observer still
// sees its observations from a single goroutine, in arrival order.
//
// Run is the one-shot form: it derives fresh jitter state from the
// path seed on every call. Continuous operation feeds the path in
// epoch-sized segments through a Runner instead, whose state persists
// across segments so the concatenated stream behaves like one run.
func (p *Path) Run(pkts []packet.Packet, observers map[receipt.HOPID]Observer) (*Result, error) {
	r, err := NewRunner(p)
	if err != nil {
		return nil, err
	}
	return r.Run(pkts, observers)
}

// Runner drives traffic across a path in consecutive segments while
// behaving exactly like one uninterrupted Run over the concatenated
// trace. Two mechanisms make the equivalence hold:
//
//   - All per-path randomness state persists between calls: the jitter
//     RNG streams (created once, from the path seed) and the stateful
//     loss and congestion processes attached to the Path. Per-packet
//     drop/delay decisions depend only on the packet sequence, so
//     segmentation never changes them.
//   - Replay withholding: a packet sent near the end of a segment
//     arrives at downstream HOPs after packets of the next segment
//     have started arriving, so replaying each segment to completion
//     would deliver those observations out of arrival order. RunSegment
//     therefore withholds, per HOP, every observation that could still
//     interleave with a future packet (observation time past the
//     segment horizon plus the HOP's minimum observation delay) and
//     merges it into the next segment's arrival-ordered replay. The
//     delivered stream is identical, observation for observation, to a
//     one-shot run's (TestRunnerSegmentsMatchOneShot) — which is what
//     lets the continuous pipeline's receipts match batch receipts
//     exactly.
type Runner struct {
	p          *Path
	jitterRngs []*stats.RNG
	linkRngs   []*stats.RNG
	rep        *replayer
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
// observations carried across segment boundaries. The linear Runner
// and the mesh TopoRunner share it — replay semantics are identical
// whatever graph produced the observations.
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
			batch := make([]Observation, 0, ReplayBatchSize)
			for _, hop := range g.hops {
				events := obsPerHop[hop]
				slices.SortStableFunc(events, func(a, b hopObservation) int { return cmp.Compare(a.timeNS, b.timeNS) })
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
				// Withheld observations outlive this segment's packet
				// slice: copy them out. The concatenation is NOT sorted
				// — an old pending observation delayed by congestion
				// can carry a later timestamp than a newly withheld one
				// — so the stable sort below is load-bearing: it
				// restores time order while keeping pending entries
				// ahead of new ones on ties (their insertion order).
				rest := pend[:0]
				rest = append(rest, pend[pn:]...)
				for _, e := range events[en:] {
					rest = append(rest, pendingObs{pkt: pkts[e.pktIdx], digest: digests[e.pktIdx], timeNS: e.timeNS})
				}
				slices.SortStableFunc(rest, func(a, b pendingObs) int { return cmp.Compare(a.timeNS, b.timeNS) })
				r.pending[hop] = rest
			}
		}()
	}
	wg.Wait()
}

// NewRunner validates the path and prepares its persistent simulation
// state.
func NewRunner(p *Path) (*Runner, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(p.Seed ^ 0xabcdef)
	nHops := p.NumHOPs()
	r := &Runner{
		p:          p,
		jitterRngs: make([]*stats.RNG, len(p.Domains)),
		linkRngs:   make([]*stats.RNG, len(p.Links)),
		rep:        newReplayer(nHops),
	}
	for i := range r.jitterRngs {
		r.jitterRngs[i] = rng.Split()
	}
	for i := range r.linkRngs {
		r.linkRngs[i] = rng.Split()
	}
	// Minimum cumulative delay to each HOP, in path order.
	t := int64(0)
	for d := range p.Domains {
		in, eg := p.HOPsOf(d)
		if d > 0 {
			t += p.Links[d-1].DelayNS
		}
		r.rep.minObsNS[in] = t + p.Domains[d].IngressSkewNS
		if eg != in {
			t += p.Domains[d].BaseDelayNS
			r.rep.minObsNS[eg] = t + p.Domains[d].EgressSkewNS
		} else if d == 0 {
			r.rep.minObsNS[eg] = t + p.Domains[d].EgressSkewNS
		}
	}
	return r, nil
}

// Run drives one final (or sole) segment of traffic: every
// observation, including any withheld by earlier RunSegment calls, is
// delivered. Equivalent to RunSegment with an unbounded horizon; call
// with an empty packet slice to flush withheld observations after an
// early stop.
func (r *Runner) Run(pkts []packet.Packet, observers map[receipt.HOPID]Observer) (*Result, error) {
	return r.RunSegment(pkts, observers, int64(1)<<62)
}

// RunSegment drives one segment of traffic (in send order) across the
// path and returns that segment's ground truth. horizonNS promises
// that every future packet is sent at or after it; observations that
// could interleave with such packets are withheld and delivered by the
// next call, keeping each HOP's replay in global arrival order across
// segments.
func (r *Runner) RunSegment(pkts []packet.Packet, observers map[receipt.HOPID]Observer, horizonNS int64) (*Result, error) {
	p := r.p
	nHops := p.NumHOPs()
	jitterRngs, linkRngs := r.jitterRngs, r.linkRngs

	res := &Result{
		Sent:      len(pkts),
		LinkDrops: make([]uint64, len(p.Links)),
	}
	for d := range p.Domains {
		in, eg := p.HOPsOf(d)
		res.Domains = append(res.Domains, DomainTruth{
			Name:    p.Domains[d].Name,
			Ingress: in,
			Egress:  eg,
		})
	}

	digests := make([]uint64, len(pkts))
	parallelChunks(len(pkts), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			digests[i] = pkts[i].Digest(p.Seed)
		}
	})

	obsPerHop := make([][]hopObservation, nHops+1) // 1-based HOP IDs

	record := func(hop receipt.HOPID, pktIdx int, t int64) {
		obsPerHop[hop] = append(obsPerHop[hop], hopObservation{pktIdx: int32(pktIdx), timeNS: t})
	}

	for i := range pkts {
		pkt := &pkts[i]
		t := pkt.SentAt

		// Stub source domain: observed at its egress HOP.
		srcIn, srcEg := p.HOPsOf(0)
		_ = srcIn
		record(srcEg, i, t+p.Domains[0].EgressSkewNS)
		res.Domains[0].In++
		res.Domains[0].Out++

		alive := true
		for d := 1; d < len(p.Domains) && alive; d++ {
			// Inter-domain link d-1 → d.
			link := &p.Links[d-1]
			if link.Loss != nil && link.Loss.Drop() {
				res.LinkDrops[d-1]++
				alive = false
				break
			}
			t += link.DelayNS
			if link.JitterNS > 0 {
				t += int64(linkRngs[d-1].Float64() * float64(link.JitterNS))
			}

			dom := &p.Domains[d]
			truth := &res.Domains[d]
			in, eg := p.HOPsOf(d)
			arrived := t
			record(in, i, arrived+dom.IngressSkewNS)
			truth.In++

			if d == len(p.Domains)-1 {
				// Destination stub: delivered.
				truth.Out++
				res.Delivered++
				break
			}

			// Intra-domain crossing.
			preferred := dom.Preferential != nil && dom.Preferential(pkt, digests[i])
			if !preferred && dom.Loss != nil && dom.Loss.Drop() {
				truth.DroppedInside++
				alive = false
				break
			}
			t += dom.BaseDelayNS
			if !preferred && dom.Delay != nil {
				t += dom.Delay.DelayOf(arrived, pkt.WireLen())
			}
			if dom.ReorderJitterNS > 0 {
				t += int64(jitterRngs[d].Float64() * float64(dom.ReorderJitterNS))
			}
			record(eg, i, t+dom.EgressSkewNS)
			truth.Out++
			truth.TrueDelaysNS = append(truth.TrueDelaysNS, float64(t-arrived))
			_ = eg
		}
	}

	// Replay each HOP's observations in arrival order (see
	// replayer.replay for the concurrency and withholding rules).
	r.rep.replay(obsPerHop, observers, pkts, digests, horizonNS)
	return res, nil
}

// ReplayBatchSize is the observation-slice granularity of the replay
// (and of the throughput measurements, which feed collectors the same
// way): large enough to amortize batch dispatch and keep the
// collector's sub-batches full, small enough that the per-goroutine
// scratch slice (~100 KB) stays cache-friendly. 4096 measured ~10%
// faster than 2048 on the Fig1 workload.
const ReplayBatchSize = 4096

// replayGroup is the replay work of one observer: all HOPs attached to
// the same Observer instance, replayed sequentially in HOP order.
type replayGroup struct {
	obs  Observer
	hops []int
}

// findGroup returns the index of the group that must also replay obs,
// or -1 for a new group. Comparable observers group by identity.
// Observers of non-comparable dynamic type (e.g. ObserverFunc) cannot
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

// parallelChunks runs fn over [0,n) split into contiguous chunks, one
// per worker. fn must only touch its own index range.
func parallelChunks(n int, fn func(lo, hi int)) {
	workers := replayWorkers()
	const minChunk = 4096
	if n < 2*minChunk || workers < 2 {
		fn(0, n)
		return
	}
	if n < workers*minChunk {
		workers = n / minChunk
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
