// Topology is the network model: an arbitrary directed domain graph
// with a route table — the shape real inter-domain measurement
// platforms exercise, where one backbone link carries traffic for many
// origin-prefix paths and blame must localize despite the sharing. The
// paper's Figure 1 chain is its one-route case (Path.Topology).
//
// The model keeps the paper's HOP semantics: a HOP is a hand-off point
// at a domain's interface onto one inter-domain link, so every directed
// link contributes exactly two HOPs — the sending domain's egress onto
// the link and the receiving domain's ingress off it. Two consequences
// do most of the work downstream:
//
//   - Sharing is structural. Every route that traverses link i crosses
//     the same (egress, ingress) HOP pair, so one collector per HOP
//     naturally files receipts for many traffic keys, and the indexed
//     (HOP, key) receipt store needs no changes to hold a mesh.
//   - MaxDiff is unambiguous. A HOP reports about exactly the link it
//     sits on, so the bound it advertises is always its own link's.
//
// Multipath (ECMP) is a traffic key with several routes: the runner
// hash-splits the key's packets across them by packet digest, the way
// a router's flow hash would. Routes of one key may share their first
// and last legs (the realistic ECMP shape) — at a HOP where the key's
// routes branch or merge, the stamped PathID records prev/next HOP 0,
// the same convention as "path ends here".
//
// A route whose Key is the zero PathKey (0.0.0.0/0 → 0.0.0.0/0) is a
// default route: any packet no keyed route claims follows it — one that
// matches no prefix included — and every routing query (RoutesForKey,
// PathIDFor, a deployment's layouts) falls back to it for a key the
// table does not list. It is how a chain forwards every packet without
// knowing the traffic's prefixes, and the rule the verify side already
// applies with RollingVerifier's fallback layout.
package netsim

import (
	"fmt"
	"sync"

	"vpm/internal/hashing"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
)

// TopoLink is one directed inter-domain link of a topology. A
// bidirectional adjacency is two TopoLinks, one per direction, each
// with its own delay/loss/queue model and its own HOP pair.
type TopoLink struct {
	// From and To are domain indices into Topology.Domains.
	From, To int
	// LinkSpec models the link (propagation delay, jitter, advertised
	// MaxDiff, loss process).
	LinkSpec
}

// Route is one HOP sequence a traffic key follows through the
// topology: consecutive directed links from an origin domain to a
// destination domain. Several routes may carry the same Key — that is
// ECMP multipath, hash-split per packet by the runner.
type Route struct {
	// Key is the origin-prefix pair routed along this sequence; the
	// zero PathKey makes it a default route.
	Key packet.PathKey
	// Links are indices into Topology.Links; Links[i].To must equal
	// Links[i+1].From.
	Links []int
}

// Topology is a directed domain graph with a route table. The stateful
// loss and queue processes attached to its DomainSpecs and LinkSpecs
// are consulted in global packet send order, shared by every route
// crossing them.
type Topology struct {
	Domains []DomainSpec
	Links   []TopoLink
	Routes  []Route
	// Seed drives packet digests, ECMP hash-splitting and all
	// simulation randomness.
	Seed uint64

	// idx caches the per-key route lists, built once on first routing
	// query (RoutesForKey, PathIDFor, NewTopoRunner; the runner's
	// sweep routes every classified packet through it). Without it
	// every per-key query scans the whole route table — quadratic once
	// a fleet-scale table holds a million keys. Finish building Routes
	// before querying.
	idxOnce sync.Once
	idx     map[packet.PathKey][]int
}

// keyRoutes returns the indices of the routes carrying key — the
// default routes for a key the table does not list — in route-table
// order, from the lazily built per-key index.
func (t *Topology) keyRoutes(key packet.PathKey) []int {
	t.idxOnce.Do(func() {
		t.idx = make(map[packet.PathKey][]int, len(t.Routes))
		for i := range t.Routes {
			t.idx[t.Routes[i].Key] = append(t.idx[t.Routes[i].Key], i)
		}
	})
	if rs, ok := t.idx[key]; ok {
		return rs
	}
	return t.idx[packet.PathKey{}]
}

// Validate checks structural invariants: link endpoints in range,
// routes made of consecutive in-range links, and no route crossing the
// same link or domain twice (a forwarding loop).
func (t *Topology) Validate() error {
	if len(t.Domains) < 2 {
		return fmt.Errorf("netsim: topology needs at least 2 domains, have %d", len(t.Domains))
	}
	if len(t.Links) == 0 {
		return fmt.Errorf("netsim: topology has no links")
	}
	for i, l := range t.Links {
		if l.From < 0 || l.From >= len(t.Domains) || l.To < 0 || l.To >= len(t.Domains) {
			return fmt.Errorf("netsim: link %d connects out-of-range domains %d->%d", i, l.From, l.To)
		}
		if l.From == l.To {
			return fmt.Errorf("netsim: link %d is a self-loop on domain %d", i, l.From)
		}
	}
	for ri, r := range t.Routes {
		if len(r.Links) == 0 {
			return fmt.Errorf("netsim: route %d has no links", ri)
		}
		seenLink := make(map[int]bool, len(r.Links))
		seenDom := make(map[int]bool, len(r.Links)+1)
		for j, li := range r.Links {
			if li < 0 || li >= len(t.Links) {
				return fmt.Errorf("netsim: route %d references link %d out of range", ri, li)
			}
			if seenLink[li] {
				return fmt.Errorf("netsim: route %d crosses link %d twice", ri, li)
			}
			seenLink[li] = true
			if j == 0 {
				seenDom[t.Links[li].From] = true
			} else if t.Links[r.Links[j-1]].To != t.Links[li].From {
				return fmt.Errorf("netsim: route %d is not contiguous at hop %d (link %d ends at domain %d, link %d starts at %d)",
					ri, j, r.Links[j-1], t.Links[r.Links[j-1]].To, li, t.Links[li].From)
			}
			if seenDom[t.Links[li].To] {
				return fmt.Errorf("netsim: route %d visits domain %d twice", ri, t.Links[li].To)
			}
			seenDom[t.Links[li].To] = true
		}
	}
	return nil
}

// NumHOPs returns the number of HOPs in the topology: two per directed
// link. HOP IDs are 1-based and contiguous.
func (t *Topology) NumHOPs() int { return 2 * len(t.Links) }

// LinkHOPs returns the HOP pair of directed link i: the sending
// domain's egress HOP onto the link and the receiving domain's ingress
// HOP off it.
func (t *Topology) LinkHOPs(i int) (egress, ingress receipt.HOPID) {
	return receipt.HOPID(2*i + 1), receipt.HOPID(2*i + 2)
}

// HOPLink returns the directed link a HOP sits on and whether the HOP
// is the link's egress (sending) side.
func (t *Topology) HOPLink(h receipt.HOPID) (link int, egressSide bool) {
	return int(h-1) / 2, h%2 == 1
}

// HOPDomain returns the index of the domain owning HOP h.
func (t *Topology) HOPDomain(h receipt.HOPID) int {
	li, eg := t.HOPLink(h)
	if eg {
		return t.Links[li].From
	}
	return t.Links[li].To
}

// RouteHOPs returns route r's HOP sequence in traversal order: the
// origin's egress onto the first link, then each transit domain's
// ingress and egress pair, then the destination's ingress off the last
// link — 2·len(links) HOPs.
func (t *Topology) RouteHOPs(r int) []receipt.HOPID {
	rt := &t.Routes[r]
	out := make([]receipt.HOPID, 0, 2*len(rt.Links))
	for _, li := range rt.Links {
		eg, in := t.LinkHOPs(li)
		out = append(out, eg, in)
	}
	return out
}

// RouteDomains returns route r's domain index sequence: origin,
// transits, destination.
func (t *Topology) RouteDomains(r int) []int {
	rt := &t.Routes[r]
	out := make([]int, 0, len(rt.Links)+1)
	out = append(out, t.Links[rt.Links[0]].From)
	for _, li := range rt.Links {
		out = append(out, t.Links[li].To)
	}
	return out
}

// RoutesForKey returns the indices of the routes carrying key, in
// route-table order — one for single-path keys, several for ECMP, the
// default routes for a key with none of its own.
// The first call builds a per-key index, so the route table must be
// complete by then.
func (t *Topology) RoutesForKey(key packet.PathKey) []int {
	return t.keyRoutes(key)
}

// Keys returns the distinct traffic keys in the route table, in
// first-appearance order.
func (t *Topology) Keys() []packet.PathKey {
	seen := make(map[packet.PathKey]bool)
	var out []packet.PathKey
	for i := range t.Routes {
		if !seen[t.Routes[i].Key] {
			seen[t.Routes[i].Key] = true
			out = append(out, t.Routes[i].Key)
		}
	}
	return out
}

// PathIDFor builds the PathID HOP h stamps on its receipts for traffic
// key: the previous and next HOPs along the key's route(s) through h —
// 0 when the path ends there, or when the key's ECMP routes branch or
// merge at h so no single neighbor exists — and the MaxDiff of h's own
// link (an ingress HOP reports about its upstream link, an egress HOP
// about its downstream link; in this numbering both are the HOP's own
// link). Must agree for every route of the key through h, which it
// does by construction: collectors stamp one PathID per (HOP, key).
func (t *Topology) PathIDFor(key packet.PathKey, h receipt.HOPID) receipt.PathID {
	li, _ := t.HOPLink(h)
	id := receipt.PathID{Key: key, MaxDiffNS: t.Links[li].MaxDiffNS}
	// "First occurrence" is tracked explicitly: HOPID 0 is a valid
	// neighbor value ("path ends here"), so using 0 as the unset
	// sentinel would make ambiguity detection depend on route-table
	// order (a route ending at h seen before a route transiting h
	// would let the transit neighbor overwrite the legitimate 0).
	// Each route's HOP sequence (RouteHOPs) is walked link by link, in
	// place: h's neighbours are its own link's other side and the
	// adjacent link's near side.
	var prev, next receipt.HOPID
	first := true
	prevAmbig, nextAmbig := false, false
	for _, ri := range t.keyRoutes(key) {
		links := t.Routes[ri].Links
		for k, li := range links {
			var p, n receipt.HOPID
			switch eg, in := t.LinkHOPs(li); h {
			case eg:
				if k > 0 {
					_, p = t.LinkHOPs(links[k-1])
				}
				n = in
			case in:
				p = eg
				if k+1 < len(links) {
					n, _ = t.LinkHOPs(links[k+1])
				}
			default:
				continue
			}
			if first {
				prev, next = p, n
				first = false
				continue
			}
			if prev != p {
				prevAmbig = true
			}
			if next != n {
				nextAmbig = true
			}
		}
	}
	if !prevAmbig {
		id.PrevHOP = prev
	}
	if !nextAmbig {
		id.NextHOP = next
	}
	return id
}

// MaxFanIn returns the largest number of distinct traffic keys sharing
// one directed link — the topology's sharing degree.
func (t *Topology) MaxFanIn() int {
	keysPerLink := make([]map[packet.PathKey]bool, len(t.Links))
	for ri := range t.Routes {
		for _, li := range t.Routes[ri].Links {
			if keysPerLink[li] == nil {
				keysPerLink[li] = make(map[packet.PathKey]bool)
			}
			keysPerLink[li][t.Routes[ri].Key] = true
		}
	}
	max := 0
	for _, m := range keysPerLink {
		if len(m) > max {
			max = len(m)
		}
	}
	return max
}

// SharedLinks returns the indices of links carrying two or more
// distinct traffic keys, in link order.
func (t *Topology) SharedLinks() []int {
	keysPerLink := make([]map[packet.PathKey]bool, len(t.Links))
	for ri := range t.Routes {
		for _, li := range t.Routes[ri].Links {
			if keysPerLink[li] == nil {
				keysPerLink[li] = make(map[packet.PathKey]bool)
			}
			keysPerLink[li][t.Routes[ri].Key] = true
		}
	}
	var out []int
	for li, m := range keysPerLink {
		if len(m) >= 2 {
			out = append(out, li)
		}
	}
	return out
}

// Result is the ground truth of one simulation segment.
type Result struct {
	Sent      int
	Delivered int
	// Unrouted counts packets no route claimed: their classified key
	// had none (or they matched no prefix at all) and the table holds
	// no default route — cross-traffic outside the route table crosses
	// no HOP.
	Unrouted int
	// Domains holds per-domain ground truth, indexed like
	// Topology.Domains; the counters aggregate every route crossing the
	// domain.
	Domains []DomainTruth
	// LinkDrops counts packets lost on each directed link, indexed
	// like Topology.Links.
	LinkDrops []uint64
	// RouteDelivered counts delivered packets per route, indexed like
	// Topology.Routes — the ECMP split observed.
	RouteDelivered []int
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

// TopoRunner drives traffic across a topology in consecutive segments
// while behaving exactly like one uninterrupted Run over the
// concatenated trace. Two mechanisms make the equivalence hold:
//
//   - All randomness state persists between calls: the jitter RNG
//     streams (created once, from the topology seed) and the stateful
//     loss and congestion processes attached to the specs. Per-packet
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
//     one-shot run's (TestRunnerSegmentsMatchOneShot,
//     TestTopoRunnerSegmentsMatchOneShot) — which is what lets the
//     continuous pipeline's receipts match batch receipts exactly.
type TopoRunner struct {
	t     *Topology
	table *packet.Table
	// Per-domain reorder-jitter and per-link jitter RNG streams, split
	// once from the topology seed in domain-then-link order.
	jitterRngs []*stats.RNG
	linkRngs   []*stats.RNG
	rep        *replayer
	// hints holds the previous segment's event count of each HOP
	// (indices 1..NumHOPs) and true-delay count of each domain (after
	// them): each segment sizes its buffers from them once instead of
	// growing them append by append, and keeps none of them.
	hints []int
	// A classified packet follows the topology's routes for its key
	// (Topology.keyRoutes), every other packet defaultRoutes; when every
	// route is a default route the sweep skips classification.
	// routeKey keys the ECMP split so it is uncorrelated with the
	// digest comparisons the sampling layer makes: SampleFcn's marker
	// half of a salt fixed by the topology's seed, mixed once.
	defaultRoutes []int
	routeHOPs     [][]receipt.HOPID
	routeDoms     [][]int
	routeKey      uint64
}

// NewTopoRunner validates the topology and prepares persistent
// simulation state. table classifies packet addresses into traffic
// keys (build it from the trace config, as deployments do); a topology
// of default routes alone needs none.
func NewTopoRunner(t *Topology, table *packet.Table) (*TopoRunner, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(t.Seed ^ 0xabcdef)
	r := &TopoRunner{
		t:             t,
		table:         table,
		jitterRngs:    make([]*stats.RNG, len(t.Domains)),
		linkRngs:      make([]*stats.RNG, len(t.Links)),
		rep:           newReplayer(t.NumHOPs()),
		hints:         make([]int, t.NumHOPs()+1+len(t.Domains)),
		defaultRoutes: t.keyRoutes(packet.PathKey{}),
		routeHOPs:     make([][]receipt.HOPID, len(t.Routes)),
		routeDoms:     make([][]int, len(t.Routes)),
		routeKey:      hashing.SampleKey(t.Seed ^ 0x9e3779b97f4a7c15),
	}
	for i := range r.jitterRngs {
		r.jitterRngs[i] = rng.Split()
	}
	for i := range r.linkRngs {
		r.linkRngs[i] = rng.Split()
	}
	for ri := range t.Routes {
		r.routeHOPs[ri] = t.RouteHOPs(ri)
		r.routeDoms[ri] = t.RouteDomains(ri)
	}
	if r.keyed() && table == nil {
		return nil, fmt.Errorf("netsim: a topology with keyed routes needs a prefix table")
	}
	// Minimum observation delay per HOP: the minimum over all routes
	// through it of the cumulative link propagation + base transit
	// delay (jitter, congestion and queueing only add), plus the HOP's
	// clock skew.
	seen := make([]bool, t.NumHOPs()+1)
	for ri := range t.Routes {
		acc := int64(0)
		doms := r.routeDoms[ri]
		for j, li := range t.Routes[ri].Links {
			eg, in := t.LinkHOPs(li)
			egT := acc + t.Domains[doms[j]].EgressSkewNS
			if !seen[eg] || egT < r.rep.minObsNS[eg] {
				r.rep.minObsNS[eg] = egT
				seen[eg] = true
			}
			acc += t.Links[li].DelayNS
			inT := acc + t.Domains[doms[j+1]].IngressSkewNS
			if !seen[in] || inT < r.rep.minObsNS[in] {
				r.rep.minObsNS[in] = inT
				seen[in] = true
			}
			acc += t.Domains[doms[j+1]].BaseDelayNS
		}
	}
	return r, nil
}

// keyed reports whether the route table holds a keyed route, which
// packets must be classified to find.
func (r *TopoRunner) keyed() bool { return len(r.defaultRoutes) < len(r.t.Routes) }

// Run drives pkts (in send order) across the topology in one shot, on
// fresh simulation state: NewTopoRunner, then TopoRunner.Run.
func (t *Topology) Run(table *packet.Table, pkts []packet.Packet, observers map[receipt.HOPID]Observer) (*Result, error) {
	r, err := NewTopoRunner(t, table)
	if err != nil {
		return nil, err
	}
	return r.Run(pkts, observers)
}

// Run drives one final (or sole) segment: every observation, including
// any withheld by earlier RunSegment calls, is delivered. Call with an
// empty packet slice to flush withheld observations.
//
// Each HOP's observations reach its observer in arrival-time order;
// observers maps HOP ID → Observer, and HOPs without an entry are
// non-deploying (partial deployment, §8). Distinct observers are called
// concurrently (see replayer.replay); everything is deterministic given
// the topology seed.
func (r *TopoRunner) Run(pkts []packet.Packet, observers map[receipt.HOPID]Observer) (*Result, error) {
	return r.RunSegment(pkts, observers, int64(1)<<62)
}

// RunSegment drives one segment of traffic (in send order) across the
// topology and returns that segment's ground truth. horizonNS promises
// that every future packet is sent at or after it; observations that
// could still interleave with such packets are withheld and delivered
// by the next call, keeping each HOP's replay in global arrival order
// across segments.
func (r *TopoRunner) RunSegment(pkts []packet.Packet, observers map[receipt.HOPID]Observer, horizonNS int64) (*Result, error) {
	t := r.t
	res := &Result{
		Sent:           len(pkts),
		Domains:        make([]DomainTruth, len(t.Domains)),
		LinkDrops:      make([]uint64, len(t.Links)),
		RouteDelivered: make([]int, len(t.Routes)),
	}
	hopHints, domHints := r.hints[:t.NumHOPs()+1], r.hints[t.NumHOPs()+1:]
	for d := range t.Domains {
		res.Domains[d].Name = t.Domains[d].Name
		if c := sizeFromHint(domHints[d], len(pkts)); c > 0 {
			res.Domains[d].TrueDelaysNS = make([]float64, 0, c)
		}
	}

	digests := make([]uint64, len(pkts))
	parallelChunks(len(pkts), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			digests[i] = pkts[i].Digest(t.Seed)
		}
	})

	// Only HOPs with an observer record events: the replay would drop
	// the others' unread.
	obsPerHop := make([][]hopObservation, t.NumHOPs()+1) // 1-based HOP IDs
	watched := make([]bool, t.NumHOPs()+1)
	for hop := 1; hop <= t.NumHOPs(); hop++ {
		if observers[receipt.HOPID(hop)] == nil {
			continue
		}
		watched[hop] = true
		if c := sizeFromHint(hopHints[hop], len(pkts)); c > 0 {
			obsPerHop[hop] = make([]hopObservation, 0, c)
		}
	}
	keyed := r.keyed()
	record := func(hop receipt.HOPID, pktIdx int, tm int64) {
		if watched[hop] {
			obsPerHop[hop] = append(obsPerHop[hop], hopObservation{pktIdx: int32(pktIdx), timeNS: tm})
		}
	}

	for i := range pkts {
		pkt := &pkts[i]
		routes := r.defaultRoutes
		if keyed {
			if key, ok := r.table.Classify(pkt); ok {
				routes = t.keyRoutes(key)
			}
		}
		if len(routes) == 0 {
			res.Unrouted++
			continue
		}
		ri := routes[0]
		if len(routes) > 1 {
			// ECMP: split by a salted digest hash, the flow-hash a
			// router would compute — deterministic per packet, and
			// uncorrelated with the marker/sampling digest comparisons.
			ri = routes[int(hashing.SampleStep(digests[i], r.routeKey)%uint64(len(routes)))]
		}
		rt := &t.Routes[ri]
		doms := r.routeDoms[ri]
		tm := pkt.SentAt

		// Origin domain: observed at its egress onto the first link.
		srcEg, _ := t.LinkHOPs(rt.Links[0])
		record(srcEg, i, tm+t.Domains[doms[0]].EgressSkewNS)
		res.Domains[doms[0]].In++
		res.Domains[doms[0]].Out++

		for j, li := range rt.Links {
			link := &t.Links[li]
			if link.Loss != nil && link.Loss.Drop() {
				res.LinkDrops[li]++
				break
			}
			tm += link.DelayNS
			if link.JitterNS > 0 {
				tm += int64(r.linkRngs[li].Float64() * float64(link.JitterNS))
			}

			di := doms[j+1]
			dom := &t.Domains[di]
			truth := &res.Domains[di]
			_, in := t.LinkHOPs(li)
			arrived := tm
			record(in, i, arrived+dom.IngressSkewNS)
			truth.In++

			if j == len(rt.Links)-1 {
				// Destination domain: delivered.
				truth.Out++
				res.Delivered++
				res.RouteDelivered[ri]++
				break
			}

			// Intra-domain crossing to the egress onto the next link.
			preferred := dom.Preferential != nil && dom.Preferential(pkt, digests[i])
			if !preferred && dom.Loss != nil && dom.Loss.Drop() {
				truth.DroppedInside++
				break
			}
			tm += dom.BaseDelayNS
			if !preferred && dom.Delay != nil {
				tm += dom.Delay.DelayOf(arrived, pkt.WireLen())
			}
			if dom.ReorderJitterNS > 0 {
				tm += int64(r.jitterRngs[di].Float64() * float64(dom.ReorderJitterNS))
			}
			eg, _ := t.LinkHOPs(rt.Links[j+1])
			record(eg, i, tm+dom.EgressSkewNS)
			truth.Out++
			truth.TrueDelaysNS = append(truth.TrueDelaysNS, float64(tm-arrived))
		}
	}

	for hop := 1; hop <= t.NumHOPs(); hop++ {
		hopHints[hop] = len(obsPerHop[hop])
	}
	for d := range res.Domains {
		domHints[d] = len(res.Domains[d].TrueDelaysNS)
	}
	r.rep.replay(obsPerHop, observers, pkts, digests, horizonNS)
	return res, nil
}

// sizeFromHint is the capacity of a per-segment buffer whose previous
// segment held hint entries: an eighth more, for the rate's noise, but
// never past n, the segment's packet count — a packet crosses a HOP or
// a domain at most once.
func sizeFromHint(hint, n int) int {
	return min(hint+hint/8, n)
}
