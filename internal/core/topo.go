package core

import (
	"fmt"
	"slices"

	"vpm/internal/aggregation"
	"vpm/internal/hashing"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/sampling"
)

// This file wires the topology into the deployment and verification
// stack. A deployment places one collector per link-endpoint HOP — a
// HOP on a shared link files receipts for every traffic key crossing
// it, which the key-first receipt index (leaf) holds without change —
// and verification runs per (traffic key, route): each route is a
// linear HOP sequence, so the whole §4 link checking machinery applies
// route by route, one layout per route.

// NewTopoDeployment builds collectors for every routed HOP of every
// deploying domain in the topology: NewTopoPlan, then Plan.Deploy.
func NewTopoDeployment(topo *netsim.Topology, table *packet.Table, cfg DeployConfig) (*Deployment, error) {
	p, err := NewTopoPlan(topo, table, cfg)
	if err != nil {
		return nil, err
	}
	return p.Deploy()
}

// NewTopoPlan derives the collector-free part of the topology's
// deployment: its HOPs are the routed HOPs of every deploying domain
// (only HOPs on some route ever observe traffic), each with its
// domain's sampling threshold. Route layouts are derived lazily on
// first KeyLayouts call — at a million keys the layout cache is the
// plan's largest allocation, and a process that only collects never
// asks for it.
func NewTopoPlan(topo *netsim.Topology, table *packet.Table, cfg DeployConfig) (*Plan, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{
		Topo:             topo,
		Table:            table,
		cfg:              cfg,
		markerThreshold:  hashing.ThresholdForRate(cfg.MarkerRate),
		sampleThresholds: make(map[receipt.HOPID]uint64),
	}
	routed := make(map[receipt.HOPID]bool)
	for ri := range topo.Routes {
		for _, h := range topo.RouteHOPs(ri) {
			routed[h] = true
		}
	}
	for h := range routed {
		if !cfg.SkipDomains[p.domain(h)] {
			p.hops = append(p.hops, h)
			p.sampleThresholds[h] = hashing.ThresholdForRate(p.tuning(h).SampleRate)
		}
	}
	slices.Sort(p.hops)
	return p, nil
}

// domain names HOP h's domain.
func (p *Plan) domain(h receipt.HOPID) string {
	return p.Topo.Domains[p.Topo.HOPDomain(h)].Name
}

// tuning is HOP h's domain's σ/δ: its override, or the default.
func (p *Plan) tuning(h receipt.HOPID) Tuning {
	if t, ok := p.cfg.PerDomain[p.domain(h)]; ok {
		return t
	}
	return p.cfg.Default
}

// Deploy builds a fresh Collector + Processor pair on every HOP of the
// plan. Collector state is single-use, the plan is not: each call
// returns a deployment of its own over the same plan.
func (p *Plan) Deploy() (*Deployment, error) {
	d := &Deployment{
		Plan:       p,
		Collectors: make(map[receipt.HOPID]*Collector, len(p.hops)),
		Processors: make(map[receipt.HOPID]*Processor, len(p.hops)),
	}
	for _, h := range p.hops {
		tune := p.tuning(h)
		col, err := NewCollector(CollectorConfig{
			HOP:   h,
			Table: p.Table,
			PathID: func(key packet.PathKey) receipt.PathID {
				return p.Topo.PathIDFor(key, h)
			},
			Sampling: sampling.Config{
				MarkerRate: p.cfg.MarkerRate,
				SampleRate: tune.SampleRate,
			},
			Aggregation: aggregation.Config{
				CutRate:  tune.AggRate,
				WindowNS: p.cfg.WindowNS,
			},
		})
		if err != nil {
			return nil, fmt.Errorf("core: HOP %v: %w", h, err)
		}
		d.Collectors[h] = col
		d.Processors[h] = NewProcessor(col)
	}
	return d, nil
}

// RouteLayout derives the verifier layout of one route: the route's
// HOP sequence with alternating link and domain segments, explicit
// owning-domain names on every segment, and ECMP branch/merge domain
// segments marked Partial (the two HOPs see different subsets of the
// key's traffic there, so aggregate loss is not comparable across
// them).
func (p *Plan) RouteLayout(ri int) Layout {
	topo := p.Topo
	rt := &topo.Routes[ri]
	hops := topo.RouteHOPs(ri)
	doms := topo.RouteDomains(ri)
	// Which of the key's routes cross each HOP — different sets at a
	// domain segment's two ends mean an ECMP branch or merge there.
	// The comparison is on the route *sets*, not their sizes: two HOPs
	// crossed by equally many but different routes (a domain that is
	// both a branch and a merge point) still see different packet
	// subsets.
	share := func(h receipt.HOPID) []int {
		var through []int
		for _, rj := range topo.RoutesForKey(rt.Key) {
			if slices.Contains(topo.RouteHOPs(rj), h) {
				through = append(through, rj)
			}
		}
		return through // RoutesForKey is ordered, so equal sets compare equal
	}
	var l Layout
	l.HOPs = append(l.HOPs, hops...)
	for j := range rt.Links {
		from, to := topo.Domains[doms[j]].Name, topo.Domains[doms[j+1]].Name
		l.Segments = append(l.Segments, Segment{
			Kind:       LinkSegment,
			Up:         hops[2*j],
			Down:       hops[2*j+1],
			Name:       from + "-" + to,
			UpDomain:   from,
			DownDomain: to,
		})
		if j+1 < len(rt.Links) {
			name := topo.Domains[doms[j+1]].Name
			in, eg := hops[2*j+1], hops[2*j+2]
			l.Segments = append(l.Segments, Segment{
				Kind:       DomainSegment,
				Up:         in,
				Down:       eg,
				Name:       name,
				UpDomain:   name,
				DownDomain: name,
				Partial:    !slices.Equal(share(in), share(eg)),
			})
		}
	}
	return l
}

// KeyLayouts groups the route layouts by traffic key, in route-table
// order — the map RollingVerifier.SetKeyLayouts consumes for mesh
// verification: one verification per (key, route layout). The map is
// built on first call and cached (layouts are immutable once built);
// do not mutate it.
func (p *Plan) KeyLayouts() map[packet.PathKey][]Layout {
	p.keyLayoutsOnce.Do(func() {
		p.keyLayouts = p.KeyLayoutsFor(nil)
	})
	return p.keyLayouts
}

// KeyLayoutsFor builds the route-layout map for the keys keep admits
// (nil keeps every key) — the key-sliced verifier view a fleet shard
// uses: a verifier responsible for 1/Nth of the key space materializes
// layouts for its slice only, instead of the whole route table's.
// Each call builds a fresh map; for the unfiltered shared cache use
// KeyLayouts.
func (p *Plan) KeyLayoutsFor(keep func(packet.PathKey) bool) map[packet.PathKey][]Layout {
	out := make(map[packet.PathKey][]Layout)
	for ri := range p.Topo.Routes {
		key := p.Topo.Routes[ri].Key
		if keep != nil && !keep(key) {
			continue
		}
		out[key] = append(out[key], p.RouteLayout(ri))
	}
	return out
}

// OwnedLinks applies the shared-link rule to one traffic key's route
// layouts. ECMP routes of a key share links (their access legs), and a
// shared link would get the identical verdict on every route — same
// receipts, same key — so the first route that reaches an (Up, Down)
// pair owns its verdict. Element r lists, ascending, the link ordinals
// (Layout.Links indexes) route r owns. RollingVerifier.VerifyEpoch —
// one-shot runs included — walks this, so checks, violations and blame
// tally distinct link verifications — not route multiplicity — in one
// order: key → route → owned links → domains → AttributeBlame.
func OwnedLinks(routes []Layout) [][]int {
	owned := make([][]int, len(routes))
	seen := make(map[[2]receipt.HOPID]bool)
	for r, lay := range routes {
		li := 0
		for _, seg := range lay.Segments {
			if seg.Kind != LinkSegment {
				continue
			}
			if pair := [2]receipt.HOPID{seg.Up, seg.Down}; !seen[pair] {
				seen[pair] = true
				owned[r] = append(owned[r], li)
			}
			li++
		}
	}
	return owned
}
