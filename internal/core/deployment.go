package core

import (
	"fmt"
	"slices"
	"sync"

	"vpm/internal/aggregation"
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

// Plan is the collector-free part of a deployment: the topology and
// prefix table, the routed HOPs of deploying domains, the verifier
// constants and the route layouts. It is everything a process that
// verifies but does not collect needs — a fleet verifier shard holds a
// Plan and nothing else — and it holds no per-HOP state. Plan.Deploy
// puts collectors on its HOPs.
type Plan struct {
	// Topo is the topology the plan covers; a chain built as a
	// netsim.Path is its one-default-route case (NewDeployment).
	Topo  *netsim.Topology
	Table *packet.Table

	cfg              DeployConfig
	hops             []receipt.HOPID // routed HOPs of deploying domains, ascending
	markerThreshold  uint64
	sampleThresholds map[receipt.HOPID]uint64
	// keyLayouts caches the per-key route layouts, built lazily on
	// first KeyLayouts call.
	keyLayoutsOnce sync.Once
	keyLayouts     map[packet.PathKey][]Layout
}

// Deployment wires a Collector + Processor pair onto every HOP of a
// Plan. It is the integration point the examples and experiments use:
// build a netsim.Path or netsim.Topology, deploy, run traffic, then
// verify. The plan's fields and methods are the deployment's own.
type Deployment struct {
	*Plan
	Collectors map[receipt.HOPID]*Collector
	Processors map[receipt.HOPID]*Processor
}

// NewDeployment builds collectors for every HOP of every deploying
// domain on the path, compiled as it stands (netsim.Path.Topology).
func NewDeployment(path *netsim.Path, table *packet.Table, cfg DeployConfig) (*Deployment, error) {
	topo, err := path.Topology()
	if err != nil {
		return nil, err
	}
	return NewTopoDeployment(topo, table, cfg)
}

// HOPs returns the HOPs that carry a collector once the plan is
// deployed — the routed HOPs of deploying domains — ascending, in a
// slice the caller owns.
func (p *Plan) HOPs() []receipt.HOPID {
	return slices.Clone(p.hops)
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

// Layout is the layout of the topology's default route — the whole
// path of a chain deployment, whatever the traffic key. A topology
// without a default route has no single layout (each route has its own,
// see RouteLayout/KeyLayouts) and gets the zero Layout.
func (p *Plan) Layout() Layout {
	return p.verifierLayout(packet.PathKey{})
}

// Seal hands every HOP's finalized receipts to sink as epoch 0, in HOP
// order: a one-shot run is the one-epoch case of the continuous
// pipeline, so whatever takes a sealed epoch — adversary sinks, a bundle
// server, a WindowedStore — takes it unchanged. The sink owns what it
// is handed: each path's sample receipts combined into one (the ⊎ of
// §4) and a copy of the aggregates. Call after Finalize.
func (d *Deployment) Seal(sink EpochSink) {
	for _, hop := range d.hops {
		proc := d.Processors[hop]
		sink(hop, 0, proc.CombinedSamples(), slices.Clone(proc.Aggs))
	}
}

// VerifyOnce judges one interval of the deployment's traffic exactly as
// continuous operation judges each epoch: seal hands every HOP's
// receipts, each HOP once, to a one-epoch WindowedStore — Seal does
// that with the deployment's own; a caller that routes them through
// adversaries or dissemination first hands over what arrived — and
// RollingVerifier.VerifyEpoch reports epoch 0 over every traffic key
// and route (KeyLayouts; Layout for a key the route table does not
// list).
func (p *Plan) VerifyOnce(cfg VerifierConfig, confidence float64, seal func(EpochSink)) (EpochReport, error) {
	win, err := NewWindowedStore(p.hops, 1)
	if err != nil {
		return EpochReport{}, err
	}
	seal(win.Sink())
	if missing := win.MissingSeals(0); len(missing) > 0 {
		return EpochReport{}, fmt.Errorf("core: HOPs %v never sealed the interval", missing)
	}
	win.FinishStream()
	rv := NewRollingVerifier(p.Layout(), cfg, win, nil, confidence)
	rv.SetKeyLayouts(p.KeyLayouts())
	return rv.VerifyEpoch(0)
}

// NewVerifier builds a verifier over the deployment's receipts for one
// origin-prefix path key, configured with the deployment's constants.
// It covers the key's first route; a multipath (ECMP) key has several,
// which VerifyOnce covers.
func (d *Deployment) NewVerifier(key packet.PathKey) *Verifier {
	v := NewVerifierFor(d.verifierLayout(key), key)
	v.SetConfig(d.VerifierConfig())
	d.Seal(v.Sink())
	return v
}

// verifierLayout resolves the layout a single-layout verifier for key
// uses: that of the first route Topology.RoutesForKey names — the
// default route's for a key the route table does not list; a key no
// route claims gets an empty layout, yielding a verifier with nothing
// to check rather than a panic.
func (p *Plan) verifierLayout(key packet.PathKey) Layout {
	routes := p.Topo.RoutesForKey(key)
	if len(routes) == 0 {
		return Layout{}
	}
	return p.RouteLayout(routes[0])
}

// VerifierConfig returns the deployment constants a hand-built
// Verifier needs (see Verifier.SetConfig); Deployment.NewVerifier
// applies them automatically.
func (p *Plan) VerifierConfig() VerifierConfig {
	return VerifierConfig{
		MarkerThreshold:  p.markerThreshold,
		SampleThresholds: p.sampleThresholds,
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
