// Package vpm is a library implementation of "Verifiable
// Network-Performance Measurements" (Argyraki, Maniatis, Singla —
// CoNEXT 2010): a voluntary self-reporting protocol by which network
// domains produce traffic receipts that let their customers and peers
// compute — and, crucially, verify — each domain's loss and delay
// performance, at an independently tunable resource cost.
//
// The implementation lives under internal/; this package is the
// facade the runnable examples, the README and the docs are written
// against, and exports exactly what they use (TestLoadBearingSet fails
// on an identifier none of them references). Methods of the aliased
// types — Deployment.VerifyOnce, Verifier.VerifyAllLinks,
// BundleClient.FetchEach (which returns the next cursor, the server's
// log position, as the in-memory bus does), … — come with them.
//
// Every HOP of a Deployment runs one Collector, driven by one goroutine
// at a time; the same traffic always produces byte-identical receipts.
// A one-shot run is judged as the one epoch of a stream
// (Deployment.VerifyOnce): every traffic key and route, blame named on
// the narrowest implicated HOP/domain set, in the EpochReport continuous
// runs publish. MergeBlames condenses per-key findings on a mesh, so a
// faulty shared link is named by every key crossing it. A Verifier
// reads one key's receipts for the paper's estimates, fed by
// Deployment.NewVerifier or from signed bundles (Verifier.Ingest).
// RunContinuous drives a deployment over a stream of rotating epochs,
// each verified as soon as every HOP has sealed it, concurrently with
// ingest of the next.
//
// Start from examples/quickstart: trace → Fig1 path → deployment →
// verifier, through this package only.
package vpm

import (
	"context"

	"vpm/internal/adversary"
	"vpm/internal/core"
	"vpm/internal/delaymodel"
	"vpm/internal/dissem"
	"vpm/internal/engine"
	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// Packets and receipts.
type (
	// PathKey names a HOP path by its origin-prefix pair.
	PathKey = packet.PathKey
	// HOPID identifies a hand-off point.
	HOPID = receipt.HOPID
	// PathID names the HOP path a receipt belongs to.
	PathID = receipt.PathID
	// SampleRecord is one delay-sampled 〈PktID, Time〉 measurement.
	SampleRecord = receipt.SampleRecord
	// SampleReceipt is a receipt for a set of sampled packets.
	SampleReceipt = receipt.SampleReceipt
	// AggReceipt is a receipt for a packet aggregate.
	AggReceipt = receipt.AggReceipt
)

// MakePrefix builds an origin prefix from octets and a length.
func MakePrefix(a, b, c, d byte, bits int) packet.Prefix { return packet.MakePrefix(a, b, c, d, bits) }

// CombineSamples is the receipt combination operator ⊎ for sample
// receipts.
func CombineSamples(rs ...SampleReceipt) (SampleReceipt, error) { return receipt.CombineSamples(rs...) }

// CombineAggregates is the ⊎ operator for consecutive aggregate
// receipts.
func CombineAggregates(rs ...AggReceipt) (AggReceipt, error) { return receipt.CombineAggregates(rs...) }

// Protocol stack.
type (
	// Collector is the per-HOP data-plane module every deployment runs.
	Collector = core.Collector
	// CollectorConfig configures a collector.
	CollectorConfig = core.CollectorConfig
	// Deployment wires collectors onto a simulated path or topology.
	Deployment = core.Deployment
	// Tuning is one domain's sampling/aggregation rates.
	Tuning = core.Tuning
	// Verifier estimates and verifies per-domain performance from
	// receipts.
	Verifier = core.Verifier
	// Blame is one attribution: narrowest implicated set + evidence
	// class + epoch.
	Blame = core.Blame
)

// NewCollector builds a standalone collector of the kind deployments
// run.
func NewCollector(cfg CollectorConfig) (*Collector, error) { return core.NewCollector(cfg) }

// NewDeployment wires collectors onto every HOP of a path.
func NewDeployment(p *Path, table *packet.Table, cfg core.DeployConfig) (*Deployment, error) {
	return core.NewDeployment(p, table, cfg)
}

// DefaultDeployConfig returns the baseline protocol parameters.
func DefaultDeployConfig() core.DeployConfig { return core.DefaultDeployConfig() }

// NewVerifier builds a verifier over a path layout for hand-fed
// receipts; Deployment.NewVerifier is the usual entry point.
func NewVerifier(layout core.Layout) *Verifier { return core.NewVerifier(layout) }

// NewVerifierFor builds a verifier restricted to one origin-prefix
// path key: receipts for other paths (e.g. in multi-path
// dissemination bundles) are ingested but never read back.
func NewVerifierFor(layout core.Layout, key PathKey) *Verifier {
	return core.NewVerifierFor(layout, key)
}

// MergeBlames condenses per-key blame findings into shared findings
// (one per evidence class and implicated HOP set, contributing keys
// counted) — how a mesh verifier names a faulty shared link.
func MergeBlames(perKey map[PathKey][]Blame) []core.SharedBlame { return core.MergeBlames(perKey) }

// FabricateDelivery is the blame-shift lie (threat-model tooling): a
// domain claims it delivered traffic it dropped. See
// examples/liar-detection.
func FabricateDelivery(ingressSamples SampleReceipt, ingressAggs []AggReceipt,
	egressPath PathID, claimedDelayNS int64) (SampleReceipt, []AggReceipt) {
	return adversary.FabricateDelivery(ingressSamples, ingressAggs, egressPath, claimedDelayNS)
}

// CoverUpReceipt is the collusion lie: a neighbor echoes a liar's
// fabricated claims, absorbing the blame.
func CoverUpReceipt(liarEgress SampleReceipt, ownPath PathID, linkDelayNS int64) SampleReceipt {
	return adversary.CoverUpReceipt(liarEgress, ownPath, linkDelayNS)
}

// CoverUpAggs forges matching aggregate receipts for a cover-up.
func CoverUpAggs(liarEgress []AggReceipt, ownPath PathID, linkDelayNS int64) []AggReceipt {
	return adversary.CoverUpAggs(liarEgress, ownPath, linkDelayNS)
}

// Simulation substrate.
type (
	// Path builds a chain of domains, the one-route topology of the
	// paper's Figure 1; perturb Domains[i] / Links[i], then deploy.
	Path = netsim.Path
	// Topology is the network model, a directed domain graph with a
	// route table: every directed link contributes an egress and an
	// ingress HOP, several routes per key is ECMP multipath, and
	// Topology.Run drives a trace across it.
	Topology = netsim.Topology
)

// Fig1Path builds the paper's five-domain example topology
// (S -> L -> X -> N -> D, HOPs 1..8).
func Fig1Path(seed uint64) *Path { return netsim.Fig1Path(seed) }

// NewTopoDeployment places collectors on every routed HOP of a
// topology; verify per (key, route) via Deployment.KeyLayouts.
func NewTopoDeployment(t *Topology, table *packet.Table, cfg core.DeployConfig) (*Deployment, error) {
	return core.NewTopoDeployment(t, table, cfg)
}

// StarTopology builds a hub-and-leaves mesh whose access link is
// shared by every key.
func StarTopology(seed uint64, leaves int, keys []PathKey) *Topology {
	return netsim.StarTopology(seed, leaves, keys)
}

// TreeTopology builds a fanout-ary tree with leaf-to-leaf routes
// crossing the shared root backbone.
func TreeTopology(seed uint64, depth, fanout int, keys []PathKey) *Topology {
	return netsim.TreeTopology(seed, depth, fanout, keys)
}

// ClosTopology builds a leaf-spine fabric with ECMP multipath across
// the spines.
func ClosTopology(seed uint64, edges, spines int, keys []PathKey) *Topology {
	return netsim.ClosTopology(seed, edges, spines, keys)
}

// RandomASTopology builds a random AS-style graph with shortest-path
// routes between stub domains.
func RandomASTopology(seed uint64, n, extra int, keys []PathKey) *Topology {
	return netsim.RandomASTopology(seed, n, extra, keys)
}

// TopoKeys returns n distinct origin-prefix traffic keys for topology
// route tables.
func TopoKeys(n int) []PathKey { return netsim.TopoKeys(n) }

// BurstyUDPScenario is the Figure 2 congestion scenario.
func BurstyUDPScenario(seed uint64) delaymodel.Config { return delaymodel.BurstyUDPScenario(seed) }

// NewCongestionQueue builds a bottleneck delay source.
func NewCongestionQueue(cfg delaymodel.Config) (*delaymodel.Queue, error) { return delaymodel.New(cfg) }

// GilbertElliottLoss builds a bursty loss process with the given
// stationary loss rate and mean burst length.
func GilbertElliottLoss(target, meanBurst float64, seed uint64) (*lossmodel.GilbertElliott, error) {
	return lossmodel.FromTargetLoss(target, meanBurst, stats.NewRNG(seed))
}

// Workloads and estimation.
type (
	// TraceConfig configures a synthetic trace.
	TraceConfig = trace.Config
	// TracePathSpec describes one path's traffic.
	TracePathSpec = trace.PathSpec
)

// DefaultTracePath returns a PathSpec at the given packet rate.
func DefaultTracePath(ratePPS float64) TracePathSpec { return trace.DefaultPath(ratePPS) }

// GenerateTrace materializes a synthetic trace.
func GenerateTrace(cfg TraceConfig) ([]packet.Packet, error) { return trace.Generate(cfg) }

// NewTraceGenerator builds a pull-based trace generator; the epoch
// engine slices its stream at epoch boundaries.
func NewTraceGenerator(cfg TraceConfig) (*trace.Generator, error) { return trace.NewGenerator(cfg) }

// DefaultQuantiles are the quantiles reports cover (p50, p90, p99).
var DefaultQuantiles = quantile.DefaultQuantiles

// EstimateQuantile estimates one delay quantile from sampled delays,
// with distribution-free confidence bounds.
func EstimateQuantile(delaysNS []float64, q, confidence float64) (quantile.Estimate, error) {
	return quantile.Quantile(delaysNS, q, confidence)
}

// Dissemination.
type (
	// ReceiptBundle is one signed reporting interval.
	ReceiptBundle = dissem.Bundle
	// BundleClient fetches and authenticates bundles.
	BundleClient = dissem.Client
	// KeyRegistry maps HOPs to verification keys.
	KeyRegistry = dissem.Registry
)

// NewBundleSigner derives a signer from a 32-byte seed.
func NewBundleSigner(seed [32]byte) *dissem.Signer { return dissem.NewSigner(seed) }

// NewBundleServer builds a bundle publisher for one HOP.
func NewBundleServer(hop HOPID, s *dissem.Signer) *dissem.Server { return dissem.NewServer(hop, s) }

// Continuous operation.
type (
	// EpochConfig parameterizes continuous multi-interval operation.
	EpochConfig = core.EpochConfig
	// WindowStats is an occupancy snapshot of the per-epoch receipt
	// window.
	WindowStats = core.WindowStats
	// EpochReport is the rolling verifier's per-epoch delta.
	EpochReport = core.EpochReport
)

// RunContinuous runs a chain deployment (NewDeployment) as a stream of
// `epochs` rotating intervals through the epoch engine: each interval
// of gen's traffic is simulated as one segment across the deployment's
// topology, every HOP seals its epoch straight into the receipt window,
// and each epoch is verified once every HOP has sealed it — overlapping
// the next segment — and reported to onEpoch, while verified epochs
// older than ec.Retention are evicted. It returns the window's final
// occupancy.
func RunContinuous(dep *Deployment, gen *trace.Generator, ec EpochConfig, epochs int, onEpoch func(EpochReport, WindowStats)) (WindowStats, error) {
	if err := ec.Validate(); err != nil {
		return WindowStats{}, err
	}
	hops := dep.HOPs()
	ver, err := engine.NewVerify(engine.Store{HOPs: hops, Retention: ec.Retention}, engine.Checks{Config: dep.VerifierConfig(), Layout: dep.Layout()})
	if err != nil {
		return WindowStats{}, err
	}
	ver.OnEpoch = onEpoch
	col, err := engine.NewCollect(dep, hops, ec.IntervalNS, 0, ver.Window.Sink())
	if err != nil {
		return WindowStats{}, err
	}
	sim, err := engine.NewSim(dep.Topo, dep.Table, nil)
	if err != nil {
		return WindowStats{}, err
	}
	err = col.Run(context.Background(), engine.EpochSource(gen, ec.IntervalNS, epochs, nil), sim, ver)
	return ver.Window.Stats(), err
}
