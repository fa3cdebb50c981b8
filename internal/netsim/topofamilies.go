package netsim

import (
	"fmt"

	"vpm/internal/packet"
	"vpm/internal/stats"
)

// This file builds the named topology families the mesh experiments
// sweep: star (one access link shared by every path), tree (backbone
// links near the root shared by leaf pairs), a Clos-like leaf-spine
// fabric (ECMP multipath across spines), and a random AS-style graph
// (shortest-path routes overlapping organically). Every family uses
// the same healthy defaults as Fig1Path, so experiments perturb
// individual links and domains the same way they do on a chain.

// TopoKeys returns n distinct origin-prefix traffic keys, numbered the
// way the verify scenario numbers its paths (10.i/16 -> 192.i/16).
func TopoKeys(n int) []packet.PathKey {
	out := make([]packet.PathKey, n)
	for i := range out {
		out[i] = packet.PathKey{
			Src: packet.MakePrefix(10, byte(i), 0, 0, 16),
			Dst: packet.MakePrefix(192, byte(i), 0, 0, 16),
		}
	}
	return out
}

// WideKeys returns n distinct origin-prefix traffic keys drawn from a
// host-grained space (10.a.b.c/32 -> 192.a.b.c/32, up to 2^24 keys).
// TopoKeys wraps after 256 keys — fine for the mesh sweeps it serves,
// fatal for a fleet-scale route table where a duplicated key silently
// becomes an unintended ECMP pair.
func WideKeys(n int) []packet.PathKey {
	out := make([]packet.PathKey, n)
	for i := range out {
		a, b, c := byte(i>>16), byte(i>>8), byte(i)
		out[i] = packet.PathKey{
			Src: packet.MakePrefix(10, a, b, c, 32),
			Dst: packet.MakePrefix(192, a, b, c, 32),
		}
	}
	return out
}

// healthyDomain returns a DomainSpec with the Fig1 healthy defaults.
func healthyDomain(name string) DomainSpec {
	return DomainSpec{
		Name:            name,
		BaseDelayNS:     DefaultBaseDelayNS,
		ReorderJitterNS: DefaultReorderJitterNS,
	}
}

// healthyLink returns the Fig1 healthy link parameters.
func healthyLink() LinkSpec {
	return LinkSpec{
		DelayNS:   DefaultLinkDelayNS,
		JitterNS:  DefaultLinkJitterNS,
		MaxDiffNS: DefaultMaxDiffNS,
	}
}

// addLink appends a directed a→b link and returns its index.
func (t *Topology) addLink(a, b int) int {
	t.Links = append(t.Links, TopoLink{From: a, To: b, LinkSpec: healthyLink()})
	return len(t.Links) - 1
}

// StarTopology builds a hub with `leaves` leaf domains. Every key
// originates at leaf 0 and terminates at one of the other leaves
// round-robin, so the leaf0→hub access link is shared by every key
// while the hub→leafJ distribution links are disjoint — the smallest
// topology where a faulty shared link implicates many traffic keys at
// once and honest disjoint links must stay clean.
func StarTopology(seed uint64, leaves int, keys []packet.PathKey) *Topology {
	if leaves < 3 {
		leaves = 3
	}
	t := &Topology{Seed: seed}
	hub := 0
	t.Domains = append(t.Domains, healthyDomain("hub"))
	leafIdx := make([]int, leaves)
	for i := 0; i < leaves; i++ {
		leafIdx[i] = len(t.Domains)
		t.Domains = append(t.Domains, healthyDomain(fmt.Sprintf("leaf%d", i)))
	}
	up := t.addLink(leafIdx[0], hub) // the shared access link
	down := make([]int, leaves)
	for i := 1; i < leaves; i++ {
		down[i] = t.addLink(hub, leafIdx[i])
	}
	for ki, key := range keys {
		dst := 1 + ki%(leaves-1)
		t.Routes = append(t.Routes, Route{Key: key, Links: []int{up, down[dst]}})
	}
	return t
}

// TreeTopology builds a complete fanout-ary tree of the given depth
// (depth 1 = root plus one level of children); the deepest level's
// domains are the leaves. Each key routes from one leaf to the leaf
// halfway around the leaf set, up through the lowest common ancestor —
// for halfway pairs that is the root, so the root's links are the
// shared backbone every pair transits.
func TreeTopology(seed uint64, depth, fanout int, keys []packet.PathKey) *Topology {
	if depth < 1 {
		depth = 1
	}
	if fanout < 2 {
		fanout = 2
	}
	t := &Topology{Seed: seed}
	t.Domains = append(t.Domains, healthyDomain("root"))
	parent := []int{0}
	// level[d] holds the domain indices at depth d.
	var leavesIdx []int
	parentOf := map[int]int{0: -1}
	for d := 1; d <= depth; d++ {
		var level []int
		for _, p := range parent {
			for c := 0; c < fanout; c++ {
				idx := len(t.Domains)
				t.Domains = append(t.Domains, healthyDomain(fmt.Sprintf("n%d_%d", d, len(level))))
				parentOf[idx] = p
				level = append(level, idx)
			}
		}
		parent = level
		leavesIdx = level
	}
	// Bidirectional child↔parent links, created per edge in domain
	// order (map iteration would randomize link numbering between
	// builds, breaking cross-run determinism).
	upLink := make(map[int]int)   // child domain → child→parent link
	downLink := make(map[int]int) // child domain → parent→child link
	for child := 1; child < len(t.Domains); child++ {
		p := parentOf[child]
		upLink[child] = t.addLink(child, p)
		downLink[child] = t.addLink(p, child)
	}
	depthOf := func(n int) int {
		d := 0
		for parentOf[n] >= 0 {
			n = parentOf[n]
			d++
		}
		return d
	}
	routeBetween := func(a, b int) []int {
		// Walk both ends up to the lowest common ancestor.
		var upPath, downPath []int
		x, y := a, b
		for depthOf(x) > depthOf(y) {
			upPath = append(upPath, upLink[x])
			x = parentOf[x]
		}
		for depthOf(y) > depthOf(x) {
			downPath = append(downPath, downLink[y])
			y = parentOf[y]
		}
		for x != y {
			upPath = append(upPath, upLink[x])
			downPath = append(downPath, downLink[y])
			x, y = parentOf[x], parentOf[y]
		}
		for i := len(downPath) - 1; i >= 0; i-- {
			upPath = append(upPath, downPath[i])
		}
		return upPath
	}
	nl := len(leavesIdx)
	for ki, key := range keys {
		a := leavesIdx[ki%nl]
		b := leavesIdx[(ki+nl/2)%nl]
		if a == b {
			b = leavesIdx[(ki+1)%nl]
		}
		t.Routes = append(t.Routes, Route{Key: key, Links: routeBetween(a, b)})
	}
	return t
}

// ClosTopology builds a leaf-spine fabric: `edges` edge domains, each
// with an attached host (stub) domain, and `spines` spine domains
// fully meshed to every edge. Each key routes host→edge→spine→edge→
// host with one route per spine — ECMP multipath, hash-split per
// packet — so the host↔edge access legs are shared by all of a key's
// routes while the spine legs are disjoint.
func ClosTopology(seed uint64, edges, spines int, keys []packet.PathKey) *Topology {
	if edges < 2 {
		edges = 2
	}
	if spines < 1 {
		spines = 1
	}
	t := &Topology{Seed: seed}
	hostIdx := make([]int, edges)
	edgeIdx := make([]int, edges)
	for i := 0; i < edges; i++ {
		edgeIdx[i] = len(t.Domains)
		t.Domains = append(t.Domains, healthyDomain(fmt.Sprintf("edge%d", i)))
		hostIdx[i] = len(t.Domains)
		t.Domains = append(t.Domains, healthyDomain(fmt.Sprintf("host%d", i)))
	}
	spineIdx := make([]int, spines)
	for k := 0; k < spines; k++ {
		spineIdx[k] = len(t.Domains)
		t.Domains = append(t.Domains, healthyDomain(fmt.Sprintf("spine%d", k)))
	}
	hostUp := make([]int, edges)
	hostDown := make([]int, edges)
	for i := 0; i < edges; i++ {
		hostUp[i] = t.addLink(hostIdx[i], edgeIdx[i])
		hostDown[i] = t.addLink(edgeIdx[i], hostIdx[i])
	}
	edgeToSpine := make([][]int, edges)
	spineToEdge := make([][]int, edges)
	for i := 0; i < edges; i++ {
		edgeToSpine[i] = make([]int, spines)
		spineToEdge[i] = make([]int, spines)
		for k := 0; k < spines; k++ {
			edgeToSpine[i][k] = t.addLink(edgeIdx[i], spineIdx[k])
			spineToEdge[i][k] = t.addLink(spineIdx[k], edgeIdx[i])
		}
	}
	for ki, key := range keys {
		a := ki % edges
		b := (a + 1 + ki/edges) % edges
		if b == a {
			b = (a + 1) % edges
		}
		for k := 0; k < spines; k++ {
			t.Routes = append(t.Routes, Route{Key: key, Links: []int{
				hostUp[a], edgeToSpine[a][k], spineToEdge[b][k], hostDown[b],
			}})
		}
	}
	return t
}

// RandomASTopology builds a random AS-style graph: n transit domains
// on a random spanning tree plus `extra` chord links (all
// bidirectional), with each key routed along the BFS shortest path
// between a random domain pair. Overlapping shortest paths produce
// organically shared links, the way inter-domain routes share
// backbone segments.
func RandomASTopology(seed uint64, n, extra int, keys []packet.PathKey) *Topology {
	if n < 3 {
		n = 3
	}
	t := &Topology{Seed: seed}
	for i := 0; i < n; i++ {
		t.Domains = append(t.Domains, healthyDomain(fmt.Sprintf("as%d", i)))
	}
	rng := stats.NewRNG(seed ^ 0x5eed)
	// fwd[a][b] = index of the a→b link, when adjacent.
	fwd := make([]map[int]int, n)
	for i := range fwd {
		fwd[i] = make(map[int]int)
	}
	connect := func(a, b int) {
		if a == b {
			return
		}
		if _, ok := fwd[a][b]; ok {
			return
		}
		fwd[a][b] = t.addLink(a, b)
		fwd[b][a] = t.addLink(b, a)
	}
	// Random spanning tree: attach each new domain to a uniformly
	// chosen earlier one.
	for i := 1; i < n; i++ {
		connect(i, int(rng.Uint64()%uint64(i)))
	}
	for e := 0; e < extra; e++ {
		connect(int(rng.Uint64()%uint64(n)), int(rng.Uint64()%uint64(n)))
	}
	// One full BFS tree per source, memoized: a fleet-scale key list
	// draws millions of endpoint pairs from a few hundred stubs, so
	// per-pair BFS would be quadratic. The tree's parent assignments
	// are exactly what a per-pair BFS stopped at b would have made
	// (deterministic sorted neighbor order, and read-back only touches
	// nodes assigned before b), so the routes are unchanged.
	type bfsTree struct{ prevLink, prevDom []int }
	trees := make(map[int]*bfsTree)
	bfsFrom := func(a int) *bfsTree {
		if tr, ok := trees[a]; ok {
			return tr
		}
		tr := &bfsTree{prevLink: make([]int, n), prevDom: make([]int, n)}
		for i := range tr.prevLink {
			tr.prevLink[i] = -1
			tr.prevDom[i] = -1
		}
		queue := []int{a}
		tr.prevDom[a] = a
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			nbrs := make([]int, 0, len(fwd[x]))
			for y := range fwd[x] {
				nbrs = append(nbrs, y)
			}
			for i := 1; i < len(nbrs); i++ {
				for j := i; j > 0 && nbrs[j] < nbrs[j-1]; j-- {
					nbrs[j], nbrs[j-1] = nbrs[j-1], nbrs[j]
				}
			}
			for _, y := range nbrs {
				if tr.prevDom[y] < 0 {
					tr.prevDom[y] = x
					tr.prevLink[y] = fwd[x][y]
					queue = append(queue, y)
				}
			}
		}
		trees[a] = tr
		return tr
	}
	shortest := func(a, b int) []int {
		tr := bfsFrom(a)
		var rev []int
		for x := b; x != a; x = tr.prevDom[x] {
			rev = append(rev, tr.prevLink[x])
		}
		out := make([]int, 0, len(rev))
		for i := len(rev) - 1; i >= 0; i-- {
			out = append(out, rev[i])
		}
		return out
	}
	// Endpoints are drawn from a small stub subset — like real
	// inter-domain traffic concentrating on a few origin networks — so
	// shortest paths overlap and links end up genuinely shared.
	nStubs := n/3 + 2
	if nStubs > n {
		nStubs = n
	}
	for _, key := range keys {
		a := int(rng.Uint64() % uint64(nStubs))
		b := int(rng.Uint64() % uint64(nStubs))
		for b == a {
			b = int(rng.Uint64() % uint64(nStubs))
		}
		t.Routes = append(t.Routes, Route{Key: key, Links: shortest(a, b)})
	}
	return t
}
