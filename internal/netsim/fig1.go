package netsim

import (
	"fmt"

	"vpm/internal/receipt"
)

// This file builds the paper's running example (Figure 1): domain S
// sends to domain D via transit domains L, X and N; HOPs are numbered
// 1..8 along the path, with X's ingress and egress at HOPs 4 and 5.

// Fig1 names the domains of the paper's example topology.
var Fig1DomainNames = []string{"S", "L", "X", "N", "D"}

// Default healthy-path parameters.
const (
	// DefaultLinkDelayNS is the inter-domain link propagation delay.
	DefaultLinkDelayNS = 1_000_000 // 1 ms
	// DefaultLinkJitterNS is the per-packet link jitter.
	DefaultLinkJitterNS = 100_000 // 0.1 ms
	// DefaultMaxDiffNS is the advertised timestamp bound per link; it
	// comfortably covers delay + jitter + sane clock skews.
	DefaultMaxDiffNS = 3_000_000 // 3 ms
	// DefaultBaseDelayNS is the uncongested intra-domain transit time.
	DefaultBaseDelayNS = 500_000 // 0.5 ms
	// DefaultReorderJitterNS reorders packets that arrive within a
	// fraction of a millisecond of each other, the paper's empirical
	// reordering regime (§6.3, reference [10]).
	DefaultReorderJitterNS = 200_000 // 0.2 ms
)

// Fig1Path builds the five-domain chain of Figure 1 with healthy
// defaults: no loss anywhere, constant transit delays, mild jitter.
// Experiments then perturb individual domains (e.g. congest X, add
// loss within X) by mutating the returned path before Run.
func Fig1Path(seed uint64) *Path { return chain(seed, Fig1DomainNames) }

// LinearPath builds an nDomains-long path with the same healthy
// defaults as Fig1Path: stub source S, transit domains T1..T(n-2),
// stub destination D. nDomains = 5 reproduces Figure 1's shape (8
// HOPs); larger values scale the verification workload — e.g. 9
// domains give the 16-HOP scenario the verify benchmarks use.
func LinearPath(seed uint64, nDomains int) *Path {
	if nDomains < 2 {
		nDomains = 2
	}
	names := make([]string, nDomains)
	for i := range names {
		names[i] = fmt.Sprintf("T%d", i)
	}
	names[0], names[nDomains-1] = "S", "D"
	return chain(seed, names)
}

// chain links the named healthy domains in order.
func chain(seed uint64, names []string) *Path {
	p := &Path{Seed: seed}
	for i, name := range names {
		p.Domains = append(p.Domains, healthyDomain(name))
		if i > 0 {
			p.Links = append(p.Links, healthyLink())
		}
	}
	return p
}

// DomainIndex returns the index of the named domain, or -1.
func (p *Path) DomainIndex(name string) int {
	for i := range p.Domains {
		if p.Domains[i].Name == name {
			return i
		}
	}
	return -1
}

// PathIDFor builds the PathID a HOP of domain d would stamp on its
// receipts for traffic with the given origin-prefix key: the previous
// and next HOPs of the reporting HOP along the path (0 when the path
// ends there, as at HOP 1's upstream or HOP 8's downstream in Figure
// 1) and the MaxDiff of the link the HOP sits on. ingress selects the
// domain's ingress HOP (true) or egress HOP (false); for stub domains
// the two coincide.
func (p *Path) PathIDFor(key receipt.PathID, d int, ingress bool) receipt.PathID {
	in, eg := p.HOPsOf(d)
	h := eg
	if ingress {
		h = in
	}
	id := key
	id.PrevHOP = prevHOP(h)
	id.NextHOP = nextHOP(h, p.NumHOPs())
	// HOPs 2i+1 and 2i+2 are the two ends of link i (Topology.HOPLink).
	id.MaxDiffNS = p.Links[(h-1)/2].MaxDiffNS
	return id
}

func prevHOP(h receipt.HOPID) receipt.HOPID {
	if h <= 1 {
		return 0
	}
	return h - 1
}

func nextHOP(h receipt.HOPID, n int) receipt.HOPID {
	if int(h) >= n {
		return 0
	}
	return h + 1
}
