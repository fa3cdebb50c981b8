package netsim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"vpm/internal/lossmodel"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// obsRecord is one recorded observation for stream comparison.
type obsRecord struct {
	digest uint64
	timeNS int64
}

// obsRecorder collects per-HOP observation streams. One recorder per
// HOP (distinct observer instances), so replay may run concurrently.
type obsRecorder struct {
	mu  sync.Mutex
	got []obsRecord
}

func (r *obsRecorder) Observe(_ *packet.Packet, digest uint64, tNS int64) {
	r.mu.Lock()
	r.got = append(r.got, obsRecord{digest, tNS})
	r.mu.Unlock()
}

// recorders builds one obsRecorder per HOP 1..n.
func recorders(n int) (map[receipt.HOPID]Observer, map[receipt.HOPID]*obsRecorder) {
	obs := make(map[receipt.HOPID]Observer, n)
	rec := make(map[receipt.HOPID]*obsRecorder, n)
	for h := 1; h <= n; h++ {
		r := &obsRecorder{}
		obs[receipt.HOPID(h)] = r
		rec[receipt.HOPID(h)] = r
	}
	return obs, rec
}

func topoTrace(t *testing.T, keys []packet.PathKey, ratePPS float64, durNS int64) (trace.Config, []packet.Packet) {
	t.Helper()
	tc := trace.Config{Seed: 11, DurationNS: durNS}
	for _, k := range keys {
		tc.Paths = append(tc.Paths, trace.PathSpec{
			SrcPrefix:    k.Src,
			DstPrefix:    k.Dst,
			RatePPS:      ratePPS,
			ActiveFlows:  8,
			MeanFlowPkts: 50,
			UDPFraction:  0.2,
		})
	}
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	return tc, pkts
}

func TestTopologyValidate(t *testing.T) {
	if _, err := LinearPath(1, 4).Topology(); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Topology)
	}{
		{"self-loop link", func(tp *Topology) { tp.Links[0].To = tp.Links[0].From }},
		{"out-of-range link", func(tp *Topology) { tp.Links[0].To = 99 }},
		{"empty route", func(tp *Topology) { tp.Routes[0].Links = nil }},
		{"discontiguous route", func(tp *Topology) {
			tp.Routes[0].Links = []int{0, 2}
		}},
		{"repeated link", func(tp *Topology) {
			tp.Routes[0].Links = []int{0, 0}
		}},
	}
	for _, c := range cases {
		tp, _ := LinearPath(1, 4).Topology()
		c.mut(tp)
		if err := tp.Validate(); err == nil {
			t.Errorf("%s: expected a validation error", c.name)
		}
	}
}

// TestDefaultRoute: a route with the zero key carries every packet no
// keyed route claims — unclassified ones included — and answers routing
// queries for unlisted keys; without one, such packets stay Unrouted;
// and a table of default routes alone is never classified against.
func TestDefaultRoute(t *testing.T) {
	keys := TopoKeys(3)
	tc, pkts := topoTrace(t, keys, 5000, 1e8) // keys[2] gets no route of its own
	background, err := trace.Generate(trace.Config{Seed: 12, DurationNS: 1e8, Paths: []trace.PathSpec{trace.DefaultPath(5000)}})
	if err != nil {
		t.Fatal(err)
	}
	perKey := make(map[packet.PathKey]int)
	for i := range pkts {
		k, _ := tc.Table().Classify(&pkts[i])
		perKey[k]++
	}
	pkts = append(pkts, background...) // send order does not matter here

	// A star where keys[0] and keys[1] leave leaf0 for leaf1 and leaf2,
	// and everything else defaults to leaf3.
	build := func(withDefault bool) *Topology {
		star := StarTopology(5, 4, keys[:2])
		if withDefault {
			star.Routes = append(star.Routes, Route{Links: []int{0, 3}})
		}
		return star
	}
	star := build(true)
	res, err := star.Run(tc.Table(), pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{perKey[keys[0]], perKey[keys[1]], perKey[keys[2]] + len(background)}
	if res.Unrouted != 0 || !slices.Equal(res.RouteDelivered, want) {
		t.Fatalf("with a default route: unrouted %d, per-route deliveries %v, want 0 and %v", res.Unrouted, res.RouteDelivered, want)
	}
	if got := star.RoutesForKey(keys[2]); !slices.Equal(got, []int{2}) {
		t.Fatalf("unlisted key resolves to routes %v, want the default route [2]", got)
	}
	if got := star.RoutesForKey(keys[0]); !slices.Equal(got, []int{0}) {
		t.Fatalf("listed key resolves to routes %v, want its own [0]", got)
	}
	_, in := star.LinkHOPs(3)
	up, _ := star.LinkHOPs(3)
	if id := star.PathIDFor(keys[2], in); id.Key != keys[2] || id.PrevHOP != up || id.NextHOP != 0 {
		t.Fatalf("PathID of an unlisted key on the default route: %+v", id)
	}

	res, err = build(false).Run(tc.Table(), pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := perKey[keys[2]] + len(background); res.Unrouted != want {
		t.Fatalf("without a default route: unrouted %d, want %d", res.Unrouted, want)
	}

	// Default routes only: no table, nothing classified, all forwarded.
	chain, err := LinearPath(5, 3).Topology()
	if err != nil {
		t.Fatal(err)
	}
	res, err = chain.Run(nil, pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != len(pkts) {
		t.Fatalf("chain delivered %d of %d packets", res.Delivered, len(pkts))
	}
	if _, err := NewTopoRunner(star, nil); err == nil {
		t.Fatal("keyed routes accepted without a prefix table")
	}
}

// TestTopoRunnerSegmentsMatchOneShot: segmented replay over a mesh
// (ECMP Clos fabric with loss and congestion) is observation-identical
// to a one-shot run — the replay-withholding machinery generalizes.
func TestTopoRunnerSegmentsMatchOneShot(t *testing.T) {
	keys := TopoKeys(4)
	build := func() *Topology {
		topo := ClosTopology(9, 2, 2, keys)
		dl, err := lossmodel.FromTargetLoss(0.08, 4, stats.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		topo.Domains[topo.DomainIndex("edge0")].Loss = dl
		ll, err := lossmodel.FromTargetLoss(0.03, 4, stats.NewRNG(6))
		if err != nil {
			t.Fatal(err)
		}
		topo.Links[0].Loss = ll
		return topo
	}
	tc, pkts := topoTrace(t, keys, 20000, 4e8)
	nHops := build().NumHOPs()

	oneTr, err := NewTopoRunner(build(), tc.Table())
	if err != nil {
		t.Fatal(err)
	}
	oneObs, oneRec := recorders(nHops)
	if _, err := oneTr.Run(append([]packet.Packet(nil), pkts...), oneObs); err != nil {
		t.Fatal(err)
	}

	segTr, err := NewTopoRunner(build(), tc.Table())
	if err != nil {
		t.Fatal(err)
	}
	segObs, segRec := recorders(nHops)
	const nSeg = 4
	segLen := int64(4e8) / nSeg
	pcopy := append([]packet.Packet(nil), pkts...)
	start := 0
	for s := 1; s <= nSeg; s++ {
		horizon := int64(s) * segLen
		end := start
		for end < len(pcopy) && pcopy[end].SentAt < horizon {
			end++
		}
		if _, err := segTr.RunSegment(pcopy[start:end], segObs, horizon); err != nil {
			t.Fatal(err)
		}
		start = end
	}
	if _, err := segTr.Run(pcopy[start:], segObs); err != nil {
		t.Fatal(err)
	}

	for h := 1; h <= nHops; h++ {
		a := oneRec[receipt.HOPID(h)].got
		b := segRec[receipt.HOPID(h)].got
		if len(a) != len(b) {
			t.Fatalf("HOP %d: observation count mismatch: one-shot %d, segmented %d", h, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("HOP %d: observation %d differs: one-shot %+v, segmented %+v", h, i, a[i], b[i])
			}
		}
	}
}

// TestStarSharing: the star family shares exactly one access link
// across every key, and the ECMP Clos splits a key's packets across
// every spine.
func TestStarSharing(t *testing.T) {
	keys := TopoKeys(6)
	// Three keys over four leaves: each distribution link carries one
	// key, so the access link is the only shared one — fan-in 3.
	star := StarTopology(3, 4, keys[:3])
	if err := star.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := star.MaxFanIn(); got != 3 {
		t.Fatalf("star fan-in: got %d, want 3", got)
	}
	shared := star.SharedLinks()
	if len(shared) != 1 || shared[0] != 0 {
		t.Fatalf("star shared links: got %v, want [0]", shared)
	}

	clos := ClosTopology(4, 2, 3, keys[:2])
	if err := clos.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(clos.RoutesForKey(keys[0])); got != 3 {
		t.Fatalf("clos ECMP routes per key: got %d, want 3", got)
	}
	tc, pkts := topoTrace(t, keys[:2], 20000, 2e8)
	tr, err := NewTopoRunner(clos, tc.Table())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(pkts, map[receipt.HOPID]Observer{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 || res.Unrouted != 0 {
		t.Fatalf("clos run: delivered %d, unrouted %d", res.Delivered, res.Unrouted)
	}
	// Every spine route of key 0 must carry a meaningful share.
	for _, ri := range clos.RoutesForKey(keys[0]) {
		if res.RouteDelivered[ri] == 0 {
			t.Fatalf("ECMP route %d carried no traffic: %v", ri, res.RouteDelivered)
		}
	}
}

// TestPathIDForECMPBranch: at a branch point of a key's ECMP routes
// the stamped PathID records next-HOP 0 (no single successor), while
// unambiguous neighbors stay recorded; MaxDiff is always the HOP's own
// link bound.
func TestPathIDForECMPBranch(t *testing.T) {
	keys := TopoKeys(1)
	clos := ClosTopology(4, 2, 2, keys)
	// Route shape per spine k: hostUp, edge→spine_k, spine_k→edge, hostDown.
	routes := clos.RoutesForKey(keys[0])
	if len(routes) != 2 {
		t.Fatalf("want 2 ECMP routes, got %d", len(routes))
	}
	hops := clos.RouteHOPs(routes[0])
	// hops[1] is the edge's ingress off the shared host link: its
	// predecessor (host egress) is unique, its successor branches.
	id := clos.PathIDFor(keys[0], hops[1])
	if id.PrevHOP != hops[0] {
		t.Fatalf("branch-point PrevHOP: got %v, want %v", id.PrevHOP, hops[0])
	}
	if id.NextHOP != 0 {
		t.Fatalf("branch-point NextHOP: got %v, want 0 (routes diverge)", id.NextHOP)
	}
	li, _ := clos.HOPLink(hops[1])
	if id.MaxDiffNS != clos.Links[li].MaxDiffNS {
		t.Fatalf("MaxDiff: got %d, want the HOP's own link bound %d", id.MaxDiffNS, clos.Links[li].MaxDiffNS)
	}
	// A spine-leg HOP is on one route only: both neighbors unique.
	id2 := clos.PathIDFor(keys[0], hops[2])
	if id2.PrevHOP != hops[1] || id2.NextHOP != hops[3] {
		t.Fatalf("spine-leg PathID neighbors: got prev=%v next=%v, want %v/%v",
			id2.PrevHOP, id2.NextHOP, hops[1], hops[3])
	}
}

// TestPathIDForAllocatesNothing: a deployment builds a PathID for every
// new (HOP, key) path state, so building one walks the key's routes in
// place — nothing allocated, for an ECMP key at its branch point and on
// a spine leg alike — and answers as the neighbours read off RouteHOPs
// do, for every key at every HOP of a Clos mesh and a random AS graph.
func TestPathIDForAllocatesNothing(t *testing.T) {
	keys := TopoKeys(1)
	clos := ClosTopology(4, 2, 2, keys)
	for _, h := range clos.RouteHOPs(clos.RoutesForKey(keys[0])[0]) {
		if n := testing.AllocsPerRun(100, func() { clos.PathIDFor(keys[0], h) }); n != 0 {
			t.Errorf("PathIDFor at %v: %v allocations, want 0", h, n)
		}
	}
	for _, tp := range []*Topology{ClosTopology(5, 4, 3, TopoKeys(12)), RandomASTopology(7, 12, 6, TopoKeys(16))} {
		for _, key := range tp.Keys() {
			for h := receipt.HOPID(1); int(h) <= 2*len(tp.Links); h++ {
				if got, want := tp.PathIDFor(key, h), pathIDFromRouteHOPs(tp, key, h); got != want {
					t.Fatalf("%v at %v: PathIDFor %+v, from RouteHOPs %+v", key, h, got, want)
				}
			}
		}
	}
}

// pathIDFromRouteHOPs is PathIDFor as first written: each route's HOP
// sequence materialised, h's neighbours read off it.
func pathIDFromRouteHOPs(t *Topology, key packet.PathKey, h receipt.HOPID) receipt.PathID {
	li, _ := t.HOPLink(h)
	id := receipt.PathID{Key: key, MaxDiffNS: t.Links[li].MaxDiffNS}
	var prev, next receipt.HOPID
	first, prevAmbig, nextAmbig := true, false, false
	for _, ri := range t.RoutesForKey(key) {
		hops := t.RouteHOPs(ri)
		for pos, hh := range hops {
			if hh != h {
				continue
			}
			var p, n receipt.HOPID
			if pos > 0 {
				p = hops[pos-1]
			}
			if pos < len(hops)-1 {
				n = hops[pos+1]
			}
			if first {
				prev, next, first = p, n, false
				continue
			}
			prevAmbig = prevAmbig || prev != p
			nextAmbig = nextAmbig || next != n
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

// TestPathIDForRouteOrderIndependent is the regression test for the
// 0-as-unset sentinel bug: when one route of a key ends at a HOP
// another route transits, the stamped PathID must record NextHOP 0
// (no single successor) whichever route appears first in the table.
func TestPathIDForRouteOrderIndependent(t *testing.T) {
	key := TopoKeys(1)[0]
	build := func(swap bool) *Topology {
		tp := &Topology{Seed: 1}
		for _, n := range []string{"A", "B", "C"} {
			tp.Domains = append(tp.Domains, healthyDomain(n))
		}
		ab := tp.addLink(0, 1)
		bc := tp.addLink(1, 2)
		short := Route{Key: key, Links: []int{ab}}    // ends at B
		long := Route{Key: key, Links: []int{ab, bc}} // transits B
		if swap {
			tp.Routes = []Route{long, short}
		} else {
			tp.Routes = []Route{short, long}
		}
		return tp
	}
	for _, swap := range []bool{false, true} {
		tp := build(swap)
		if err := tp.Validate(); err != nil {
			t.Fatal(err)
		}
		_, in := tp.LinkHOPs(0) // B's ingress off A→B: shared by both routes
		id := tp.PathIDFor(key, in)
		if id.NextHOP != 0 {
			t.Fatalf("swap=%v: NextHOP %v at a HOP where one route ends and one continues; want 0", swap, id.NextHOP)
		}
		if eg, _ := tp.LinkHOPs(0); id.PrevHOP != eg {
			t.Fatalf("swap=%v: PrevHOP %v, want the unambiguous upstream %v", swap, id.PrevHOP, eg)
		}
	}
}

// TestTreeRouting: tree routes are contiguous, cross the root for
// halfway leaf pairs, and the root links are shared.
func TestTreeRouting(t *testing.T) {
	keys := TopoKeys(4)
	tree := TreeTopology(8, 2, 2, keys)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(tree.SharedLinks()); got == 0 {
		t.Fatal("tree has no shared links; expected shared backbone near the root")
	}
	for ri := range tree.Routes {
		doms := tree.RouteDomains(ri)
		hasRoot := false
		for _, d := range doms {
			if tree.Domains[d].Name == "root" {
				hasRoot = true
			}
		}
		if !hasRoot {
			t.Fatalf("route %d (domains %v) does not cross the root", ri, doms)
		}
	}
}

// TestRandomASTopology: generated graphs validate and route every key.
func TestRandomASTopology(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		keys := TopoKeys(8)
		tp := RandomASTopology(seed, 10, 4, keys)
		if err := tp.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(tp.Routes) != len(keys) {
			t.Fatalf("seed %d: %d routes for %d keys", seed, len(tp.Routes), len(keys))
		}
	}
}

// TestTopoRunnerDeterminism: two identically built runners produce
// identical observation streams (the ECMP split and all RNG streams
// are functions of the seed alone).
func TestTopoRunnerDeterminism(t *testing.T) {
	keys := TopoKeys(3)
	tc, pkts := topoTrace(t, keys, 20000, 1e8)
	run := func() map[receipt.HOPID][]obsRecord {
		topo := StarTopology(6, 4, keys)
		tr, err := NewTopoRunner(topo, tc.Table())
		if err != nil {
			t.Fatal(err)
		}
		obs, rec := recorders(topo.NumHOPs())
		if _, err := tr.Run(append([]packet.Packet(nil), pkts...), obs); err != nil {
			t.Fatal(err)
		}
		out := make(map[receipt.HOPID][]obsRecord)
		for h, r := range rec {
			out[h] = r.got
		}
		return out
	}
	a, b := run(), run()
	for h := range a {
		if fmt.Sprint(a[h]) != fmt.Sprint(b[h]) {
			t.Fatalf("HOP %v: nondeterministic observation stream", h)
		}
	}
}

// nopObserver discards observations; distinct values are distinct
// observers, so each HOP replays in a group of its own.
type nopObserver struct{ hop int }

func (nopObserver) Observe(*packet.Packet, uint64, int64) {}

// TestReplayScratchSizedToSegment: each observer group's replay scratch
// is sized to what its HOPs deliver in the segment, not to
// ReplayBatchSize. A 10-packet segment over a fabric of 160 HOPs, each
// its own group, allocates less than one full-size batch in all (it
// was one full-size batch per HOP).
func TestReplayScratchSizedToSegment(t *testing.T) {
	keys := TopoKeys(4)
	topo := ClosTopology(9, 8, 4, keys)
	nHops := topo.NumHOPs()
	if nHops < 100 {
		t.Fatalf("fabric has %d HOPs, want at least 100", nHops)
	}
	tc, pkts := topoTrace(t, keys, 2000, 1e8)
	if len(pkts) < 20 {
		t.Fatalf("trace has %d packets, want at least 20", len(pkts))
	}
	obs := make(map[receipt.HOPID]Observer, nHops)
	for h := 1; h <= nHops; h++ {
		obs[receipt.HOPID(h)] = nopObserver{h}
	}
	tr, err := NewTopoRunner(topo, tc.Table())
	if err != nil {
		t.Fatal(err)
	}
	// A first segment warms whatever the runner keeps between segments.
	if _, err := tr.RunSegment(pkts[:10], obs, pkts[10].SentAt); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := tr.RunSegment(pkts[10:20], obs, pkts[20].SentAt); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	batch := uint64(ReplayBatchSize) * uint64(unsafe.Sizeof(Observation{}))
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("a 10-packet segment over %d HOPs allocated %d bytes", nHops, grew)
	if grew >= batch {
		t.Fatalf("a 10-packet segment over %d HOPs allocated %d bytes, want < %d (one full-size batch)", nHops, grew, batch)
	}
}
