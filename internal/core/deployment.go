package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"vpm/internal/aggregation"
	"vpm/internal/hashing"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/sampling"
)

// Tuning is one domain's locally chosen resource knobs (§2.2
// Tunability): its sampling rate σ and its aggregation (cut) rate δ.
type Tuning struct {
	// SampleRate is the fraction of packets delay-sampled (beyond the
	// always-sampled markers).
	SampleRate float64
	// AggRate is the cutting-point rate; mean aggregate size is
	// 1/AggRate packets.
	AggRate float64
}

// DeployConfig configures a whole-path VPM deployment.
type DeployConfig struct {
	// MarkerRate is the system-wide marker frequency µ (a VPM design
	// constant, §5.1).
	MarkerRate float64
	// WindowNS is the system-wide reordering safety threshold J
	// (§6.3; the paper's conservative choice is 10 ms).
	WindowNS int64
	// Default tuning applies to every domain without an override.
	Default Tuning
	// PerDomain overrides tuning for named domains — each domain
	// chooses its own cost/quality trade-off independently.
	PerDomain map[string]Tuning
	// SkipDomains lists domains that have not deployed VPM (§8,
	// partial deployment): their HOPs produce no receipts.
	SkipDomains map[string]bool
	// Shards is retired and ignored (bench/ still assigns it).
	Shards int
}

// Validate rejects deployment configurations that would otherwise
// fail deep inside collector construction with a less useful error —
// or, worse, silently misbehave (zero rates produced deployments that
// never sample or never cut).
func (c DeployConfig) Validate() error {
	if c.MarkerRate <= 0 || c.MarkerRate > 1 {
		return fmt.Errorf("core: marker rate %v outside (0,1]", c.MarkerRate)
	}
	if c.WindowNS < 0 {
		return fmt.Errorf("core: negative reordering window %dns", c.WindowNS)
	}
	if err := validateTuning("default", c.Default); err != nil {
		return err
	}
	for name, t := range c.PerDomain {
		if err := validateTuning(fmt.Sprintf("domain %q", name), t); err != nil {
			return err
		}
	}
	return nil
}

// validateTuning checks one domain's σ/δ knobs.
func validateTuning(who string, t Tuning) error {
	if t.SampleRate < 0 || t.SampleRate > 1 {
		return fmt.Errorf("core: %s sampling rate %v outside [0,1]", who, t.SampleRate)
	}
	if t.AggRate <= 0 || t.AggRate > 1 {
		return fmt.Errorf("core: %s aggregation rate %v outside (0,1]", who, t.AggRate)
	}
	return nil
}

// DefaultDeployConfig returns the configuration the experiments use as
// a baseline: markers about once per mille (one per ~10 ms at backbone
// rates, which bounds the sampling temp buffer exactly as §7.1's J =
// 10 ms budget does), 1% sampling, one aggregate per ~100k packets
// (the paper's Figure 3 scenario), and a 2 ms AggTrans window — four
// times the largest reordering distance measured in the paper's cited
// Internet study (§6.3, reference [10]), chosen so patch-up state
// stays a negligible fraction of receipt bandwidth. The ablation
// benchmarks vary both windows.
func DefaultDeployConfig() DeployConfig {
	return DeployConfig{
		MarkerRate: 0.001,
		WindowNS:   2_000_000,
		Default:    Tuning{SampleRate: 0.01, AggRate: 0.00001},
	}
}

// DefaultSamplingConfig returns the default Algorithm 1 parameters of
// DefaultDeployConfig for standalone collector use.
func DefaultSamplingConfig() sampling.Config {
	c := DefaultDeployConfig()
	return sampling.Config{MarkerRate: c.MarkerRate, SampleRate: c.Default.SampleRate}
}

// DefaultAggregationConfig returns the default Algorithm 2 parameters
// of DefaultDeployConfig for standalone collector use.
func DefaultAggregationConfig() aggregation.Config {
	c := DefaultDeployConfig()
	return aggregation.Config{CutRate: c.Default.AggRate, WindowNS: c.WindowNS}
}

// Deployment wires a Collector + Processor pair onto every HOP of a
// simulated path. It is the integration point the examples and
// experiments use: build a netsim.Path, deploy, run traffic, then
// verify.
type Deployment struct {
	// Path is the linear path this deployment covers, nil for a mesh
	// deployment (see Topo).
	Path *netsim.Path
	// Topo is the mesh topology this deployment covers, nil for a
	// linear one (see NewTopoDeployment). Exactly one of Path and Topo
	// is set; Layout serves linear deployments, RouteLayouts and
	// KeyLayouts serve meshes.
	Topo       *netsim.Topology
	Table      *packet.Table
	Collectors map[receipt.HOPID]*Collector
	Processors map[receipt.HOPID]*Processor

	markerThreshold  uint64
	sampleThresholds map[receipt.HOPID]uint64
	// keyLayouts caches the per-key route layouts of a mesh deployment
	// (nil for linear ones); built lazily on first KeyLayouts call.
	keyLayoutsOnce sync.Once
	keyLayouts     map[packet.PathKey][]Layout
}

// NewDeployment builds collectors for every HOP of every deploying
// domain on the path.
func NewDeployment(path *netsim.Path, table *packet.Table, cfg DeployConfig) (*Deployment, error) {
	if err := path.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Deployment{
		Path:             path,
		Table:            table,
		Collectors:       make(map[receipt.HOPID]*Collector),
		Processors:       make(map[receipt.HOPID]*Processor),
		markerThreshold:  hashing.ThresholdForRate(cfg.MarkerRate),
		sampleThresholds: make(map[receipt.HOPID]uint64),
	}
	for di := range path.Domains {
		dom := &path.Domains[di]
		if cfg.SkipDomains[dom.Name] {
			continue
		}
		tune, ok := cfg.PerDomain[dom.Name]
		if !ok {
			tune = cfg.Default
		}
		in, eg := path.HOPsOf(di)
		hops := []struct {
			id      receipt.HOPID
			ingress bool
		}{{in, true}}
		if eg != in {
			hops = append(hops, struct {
				id      receipt.HOPID
				ingress bool
			}{eg, false})
		}
		for _, h := range hops {
			di, ingress := di, h.ingress
			col, err := NewCollector(CollectorConfig{
				HOP:   h.id,
				Table: table,
				PathID: func(key packet.PathKey) receipt.PathID {
					return path.PathIDFor(receipt.PathID{Key: key}, di, ingress)
				},
				Sampling: sampling.Config{
					MarkerRate: cfg.MarkerRate,
					SampleRate: tune.SampleRate,
				},
				Aggregation: aggregation.Config{
					CutRate:  tune.AggRate,
					WindowNS: cfg.WindowNS,
				},
			})
			if err != nil {
				return nil, fmt.Errorf("core: HOP %v: %w", h.id, err)
			}
			d.Collectors[h.id] = col
			d.Processors[h.id] = NewProcessor(col)
			d.sampleThresholds[h.id] = hashing.ThresholdForRate(tune.SampleRate)
		}
	}
	return d, nil
}

// HOPs returns the HOPs that carry a collector, ascending.
func (d *Deployment) HOPs() []receipt.HOPID {
	hops := make([]receipt.HOPID, 0, len(d.Collectors))
	for id := range d.Collectors {
		hops = append(hops, id)
	}
	slices.Sort(hops)
	return hops
}

// Observers adapts the deployment's collectors to the simulator.
func (d *Deployment) Observers() map[receipt.HOPID]netsim.Observer {
	out := make(map[receipt.HOPID]netsim.Observer, len(d.Collectors))
	for id, c := range d.Collectors {
		out[id] = c
	}
	return out
}

// Finalize flushes every collector into its processor. Call after the
// simulation run, before building verifiers.
func (d *Deployment) Finalize() {
	for _, p := range d.Processors {
		p.Finalize()
	}
}

// Layout derives the verifier's path layout from the simulated linear
// path. A mesh deployment has no single layout — each route has its
// own (RouteLayouts/KeyLayouts) — so Layout returns the zero Layout
// there; the verifier entry points route through verifierLayout, which
// picks the right per-key layout for both kinds.
func (d *Deployment) Layout() Layout {
	p := d.Path
	if p == nil {
		return Layout{}
	}
	var l Layout
	for di := range p.Domains {
		in, eg := p.HOPsOf(di)
		if di > 0 {
			_, prevEg := p.HOPsOf(di - 1)
			l.Segments = append(l.Segments, Segment{
				Kind:       LinkSegment,
				Up:         prevEg,
				Down:       in,
				Name:       fmt.Sprintf("%s-%s", p.Domains[di-1].Name, p.Domains[di].Name),
				UpDomain:   p.Domains[di-1].Name,
				DownDomain: p.Domains[di].Name,
			})
		}
		l.HOPs = append(l.HOPs, in)
		if eg != in {
			l.Segments = append(l.Segments, Segment{
				Kind:       DomainSegment,
				Up:         in,
				Down:       eg,
				Name:       p.Domains[di].Name,
				UpDomain:   p.Domains[di].Name,
				DownDomain: p.Domains[di].Name,
			})
			l.HOPs = append(l.HOPs, eg)
		}
	}
	return l
}

// NewVerifier builds a verifier over the deployment's receipts for
// one origin-prefix path key, indexing only that key's receipts into
// a private store (each call re-scans the deployment's receipts). To
// verify many path keys, build the store once with NewStore and share
// it across per-key verifiers via NewVerifierOn instead.
func (d *Deployment) NewVerifier(key packet.PathKey) *Verifier {
	return d.NewVerifierOn(d.newStore(&key), key)
}

// NewStore indexes every processor's retained receipts — all HOPs,
// all traffic keys — into one ReceiptStore. Build it once after
// Finalize; every per-key verifier then resolves its receipts with
// index lookups instead of re-scanning the deployment.
func (d *Deployment) NewStore() *ReceiptStore {
	return d.newStore(nil)
}

// newStore indexes the deployment's receipts, all of them (only ==
// nil) or one traffic key's worth.
func (d *Deployment) newStore(only *packet.PathKey) *ReceiptStore {
	s := NewReceiptStore()
	// Deterministic iteration order for reproducibility.
	hops := make([]int, 0, len(d.Processors))
	for id := range d.Processors {
		hops = append(hops, int(id))
	}
	sort.Ints(hops)
	for _, hi := range hops {
		id := receipt.HOPID(hi)
		proc := d.Processors[id]
		for _, r := range proc.CombinedSamples() {
			if only == nil || r.Path.Key == *only {
				s.AddSamples(id, r)
			}
		}
		aggs := proc.Aggs
		if only != nil {
			aggs = nil
			for _, a := range proc.Aggs {
				if a.Path.Key == *only {
					aggs = append(aggs, a)
				}
			}
		}
		s.AddAggs(id, aggs)
	}
	return s
}

// NewVerifierOn builds a verifier for one origin-prefix path key over
// a shared receipt store (see NewStore), configured with the
// deployment's constants. On a mesh deployment the verifier covers the
// key's first route; a multipath (ECMP) key has several routes — use
// KeyLayouts and build one verifier per route layout to cover them
// all.
func (d *Deployment) NewVerifierOn(store *ReceiptStore, key packet.PathKey) *Verifier {
	v := NewVerifierOn(d.verifierLayout(key), store, key)
	v.SetConfig(d.VerifierConfig())
	return v
}

// verifierLayout resolves the layout a single-layout verifier for key
// uses: the linear path layout, or — on a mesh — the key's first
// route layout (an unrouted key gets an empty layout, yielding a
// verifier with nothing to check rather than a panic).
func (d *Deployment) verifierLayout(key packet.PathKey) Layout {
	if d.Topo == nil {
		return d.Layout()
	}
	if ls := d.KeyLayouts()[key]; len(ls) > 0 {
		return ls[0]
	}
	return Layout{}
}

// VerifierConfig returns the deployment constants a hand-built
// Verifier needs (see Verifier.SetConfig); Deployment.NewVerifier
// applies them automatically.
func (d *Deployment) VerifierConfig() VerifierConfig {
	return VerifierConfig{
		MarkerThreshold:  d.markerThreshold,
		SampleThresholds: d.sampleThresholds,
	}
}

// TotalReceiptBytes sums the receipt bandwidth of all HOPs — the
// numerator of the path's §7.1 bandwidth overhead.
func (d *Deployment) TotalReceiptBytes() int64 {
	var total int64
	for _, p := range d.Processors {
		total += p.ReceiptBytes()
	}
	return total
}
