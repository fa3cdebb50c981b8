// Package vpm is a library implementation of "Verifiable
// Network-Performance Measurements" (Argyraki, Maniatis, Singla —
// CoNEXT 2010): a voluntary self-reporting protocol by which network
// domains produce traffic receipts that let their customers and peers
// compute — and, crucially, verify — each domain's loss and delay
// performance, at an independently tunable resource cost.
//
// The package re-exports the library's public surface from the
// internal implementation packages:
//
//   - packet model and origin-prefix classification (internal/packet)
//   - bias-resistant delay sampling, Algorithm 1 (internal/sampling)
//   - tunable aggregation with reorder patch-up, Algorithm 2
//     (internal/aggregation)
//   - traffic receipts, combination and consistency (internal/receipt)
//   - the Collector/Processor/Verifier protocol stack (internal/core)
//   - the simulation substrate: domains, HOPs, links, loss and
//     congestion models, synthetic traces (internal/netsim and
//     friends)
//   - signed receipt dissemination over HTTP (internal/dissem)
//
// # Collection and concurrency
//
// The collection pipeline is batched and serial inside a collector.
// Every HOP runs a ShardedCollector, which one goroutine drives at a
// time, so the per-packet path takes no locks and starts no
// goroutines; Collector
// is its packet-at-a-time reference implementation, kept as the oracle
// the equivalence tests compare against. Observers can receive
// traffic either packet-at-a-time (Observe) or in arrival-order
// batches (ObserveBatch, the BatchObserver interface), which
// amortizes dispatch and classification and is grouped by path 256
// observations at a time, so interleaved traffic visits a path's state
// once per group rather than once per packet. The process's
// concurrency lives in three places only: the simulator replays each
// HOP's observations concurrently with every other HOP's, in batches;
// the epoch engine verifies one epoch while the next is collected; and
// the fleet runs collectors and verifier shards as separate processes.
// The same traffic always produces byte-identical receipts, drained in
// deterministic PathID-sorted order.
//
// # Verification
//
// Receipts are ingested into a ReceiptStore — an indexed, concurrent
// store keyed by (HOP, traffic key) — either up front
// (Deployment.NewStore,
// Verifier.AddSampleReceipt) or incrementally from signed
// dissemination bundles (Verifier.Ingest, IngestSigned, and
// IngestBundles; BundleClient.FetchEach streams bundles off the wire
// one at a time, authenticating each signature before it is
// ingested). One store serves many verifiers: build it once, then
// attach a key-restricted verifier per origin-prefix path
// (Deployment.NewVerifierOn, NewVerifierOn) without re-scanning
// receipts per path. Verifier.VerifyAllLinks and
// Verifier.DomainReports run their link and domain checks one after
// another and return them in deterministic LinkID (path) order, with
// missing-record checks answered by a binary search over each index's
// cached marker timeline instead of a scan over all of a HOP's
// samples.
//
// # Continuous operation
//
// The pipeline also runs continuously, over a stream of rotating
// epochs (reporting intervals), instead of as a one-shot batch. Every
// collector sits behind an epoch clock: when a HOP's observation
// timestamps cross an interval boundary the collector rotates
// (RotateInterval), sealing the receipts finalized during the closing
// epoch without disturbing open state — an aggregate spanning the
// boundary keeps counting and lands in the epoch where it closes, so
// the concatenated epoch stream is byte-identical to a one-shot run's
// receipts. Sealed epochs flow (optionally as epoch-tagged signed
// bundles, BundleServer.PublishEpoch) into a window holding one
// ReceiptStore segment per epoch; each epoch is verified as soon as
// every HOP has sealed it, concurrently with ingest of the next, while
// verified epochs older than the retention window are evicted
// (unverified epochs never are). RunContinuous is that whole pipeline
// behind one call; see examples/continuous and cmd/vpm-node.
//
// # Mesh & multipath topologies
//
// Beyond linear paths, a Topology models an arbitrary directed domain
// graph: every directed link contributes an egress and an ingress HOP,
// so a link shared by many origin-prefix paths is one HOP pair whose
// collectors file receipts for every traffic key crossing it. A Route
// is one key's HOP sequence through the graph; several routes per key
// is ECMP multipath, hash-split per packet by the TopoRunner. Named
// families — StarTopology, TreeTopology, ClosTopology,
// RandomASTopology — build mesh fixtures; NewTopoDeployment places
// collectors on every routed HOP, verification runs per (key, route)
// against RouteLayouts, and MergeBlames condenses per-key findings so
// a faulty shared link is named by every key crossing it while honest
// disjoint routes stay clean. See `vpm-bench -run topo`.
//
// Quickstart (see examples/quickstart for the runnable version):
//
//	pkts, _ := vpm.GenerateTrace(vpm.TraceConfig{
//		Seed: 1, DurationNS: 1e9,
//		Paths: []vpm.TracePathSpec{vpm.DefaultTracePath(100000)},
//	})
//	path := vpm.Fig1Path(7)                  // S -> L -> X -> N -> D
//	dep, _ := vpm.NewDeployment(path, table, vpm.DefaultDeployConfig())
//	path.Run(pkts, dep.Observers())
//	dep.Finalize()
//	v := dep.NewVerifier(key)
//	report, _ := v.DomainReport("X", vpm.DefaultQuantiles, 0.95)
package vpm

import (
	"context"

	"vpm/internal/aggregation"
	"vpm/internal/core"
	"vpm/internal/delaymodel"
	"vpm/internal/dissem"
	"vpm/internal/engine"
	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
	"vpm/internal/sampling"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// Packet model.
type (
	// Packet is an IPv4 packet with transport header and simulation
	// metadata.
	Packet = packet.Packet
	// Prefix is an IPv4 origin prefix.
	Prefix = packet.Prefix
	// PathKey names a HOP path by its origin-prefix pair.
	PathKey = packet.PathKey
	// PrefixTable performs longest-prefix matching.
	PrefixTable = packet.Table
)

// MakePrefix builds an origin prefix from octets and a length.
func MakePrefix(a, b, c, d byte, bits int) Prefix { return packet.MakePrefix(a, b, c, d, bits) }

// NewPrefixTable builds a longest-prefix-match table.
func NewPrefixTable(prefixes []Prefix) *PrefixTable { return packet.NewTable(prefixes) }

// Receipts.
type (
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
	// Inconsistency is one receipt-consistency violation.
	Inconsistency = receipt.Inconsistency
)

// CombineSamples is the receipt combination operator ⊎ for sample
// receipts.
func CombineSamples(rs ...SampleReceipt) (SampleReceipt, error) {
	return receipt.CombineSamples(rs...)
}

// CombineAggregates is the ⊎ operator for consecutive aggregate
// receipts.
func CombineAggregates(rs ...AggReceipt) (AggReceipt, error) {
	return receipt.CombineAggregates(rs...)
}

// Protocol stack.
type (
	// Collector is the packet-at-a-time reference collector.
	Collector = core.Collector
	// ShardedCollector is the batched per-HOP data-plane module every
	// deployment runs (the name is historical: it no longer shards).
	ShardedCollector = core.ShardedCollector
	// PathCollector is the data-plane surface both Collector and
	// ShardedCollector implement.
	PathCollector = core.PathCollector
	// CollectorConfig configures a collector.
	CollectorConfig = core.CollectorConfig
	// Processor is the per-HOP control-plane module.
	Processor = core.Processor
	// Deployment wires collectors onto a simulated path.
	Deployment = core.Deployment
	// DeployConfig configures a deployment.
	DeployConfig = core.DeployConfig
	// Tuning is one domain's sampling/aggregation rates.
	Tuning = core.Tuning
	// Verifier estimates and verifies per-domain performance from
	// receipts.
	Verifier = core.Verifier
	// ReceiptStore is the indexed, concurrent receipt store behind
	// verifiers; one store can serve many per-path verifiers.
	ReceiptStore = core.ReceiptStore
	// DomainReport is a verifier's estimate for one domain.
	DomainReport = core.DomainReport
	// LinkVerdict is the consistency verdict for one inter-domain
	// link.
	LinkVerdict = core.LinkVerdict
	// MarkerBiasReport is the outcome of the marker-preference check.
	MarkerBiasReport = core.MarkerBiasReport
	// Segment is one adjacency (link or domain crossing) of a Layout.
	Segment = core.Segment
	// SegmentKind distinguishes link segments from domain segments.
	SegmentKind = core.SegmentKind
	// LossReport is the aggregate-based loss computation.
	LossReport = core.LossReport
	// SamplingConfig parameterizes Algorithm 1.
	SamplingConfig = sampling.Config
	// AggregationConfig parameterizes Algorithm 2.
	AggregationConfig = aggregation.Config
	// Layout describes a path's HOPs and segments for a verifier.
	Layout = core.Layout
	// VerifierConfig carries deployment constants for a hand-built
	// verifier.
	VerifierConfig = core.VerifierConfig
)

// Segment kinds (see core.SegmentKind).
const (
	// LinkSegment is an inter-domain link — where consistency is
	// checked.
	LinkSegment = core.LinkSegment
	// DomainSegment is an intra-domain crossing — where performance
	// is estimated.
	DomainSegment = core.DomainSegment
)

// NewVerifier builds a verifier over a path layout for hand-fed
// receipts; Deployment.NewVerifier is the usual entry point.
func NewVerifier(layout Layout) *Verifier { return core.NewVerifier(layout) }

// NewVerifierFor builds a verifier restricted to one origin-prefix
// path key: receipts for other paths (e.g. in multi-path
// dissemination bundles) are ingested but never read back.
func NewVerifierFor(layout Layout, key PathKey) *Verifier { return core.NewVerifierFor(layout, key) }

// NewVerifierOn builds a key-restricted verifier over a shared
// ReceiptStore; Deployment.NewVerifierOn is the usual entry point.
func NewVerifierOn(layout Layout, store *ReceiptStore, key PathKey) *Verifier {
	return core.NewVerifierOn(layout, store, key)
}

// NewReceiptStore returns an empty indexed receipt store, to be shared
// across per-path verifiers via NewVerifierOn.
func NewReceiptStore() *ReceiptStore { return core.NewReceiptStore() }

// Byzantine adversary framework (threat-model tooling). Data-plane
// adversaries (HOPAdversary) are worn by a HOP via WearAdversary and
// rewrite its observation stream; dissemination attacks
// (BundleTamper) install on a BundleServer with SetTamper; the
// control-plane layer in between (core.EpochAdversary) is mounted by
// internal/experiments. Verification answers with blame attribution:
// each Blame names the narrowest implicated HOP/domain set and the
// evidence class. See the attack-matrix section in README.md.
type (
	// HOPAdversary rewrites the observation stream of one HOP (the
	// data-plane half of the Byzantine framework).
	HOPAdversary = netsim.Adversary
	// BundleTamper intercepts bundles at the dissemination boundary.
	BundleTamper = dissem.BundleTamper
	// Blame is one attribution: narrowest implicated set + evidence
	// class + epoch.
	Blame = core.Blame
	// EvidenceClass classifies the proof behind a Blame.
	EvidenceClass = core.EvidenceClass
	// Equivocation is a non-repudiable two-signatures proof.
	Equivocation = dissem.Equivocation
)

// WearAdversary dresses a HOP's observer in a data-plane adversary.
func WearAdversary(hop HOPID, adv HOPAdversary, obs Observer) Observer {
	return netsim.Wear(hop, adv, obs)
}

// AttributeBlame condenses link verdicts into blame findings.
func AttributeBlame(layout Layout, epoch EpochID, verdicts []LinkVerdict) []Blame {
	return core.AttributeBlame(layout, epoch, verdicts)
}

// FindEquivocation cross-checks two verifiers' signed bundles from
// one origin for contradictions.
func FindEquivocation(reg KeyRegistry, origin HOPID, a, b []SignedReceiptBundle) []Equivocation {
	return dissem.FindEquivocation(reg, origin, a, b)
}

// FabricateDelivery is the blame-shift lie (threat-model tooling): a
// domain claims it delivered traffic it dropped. See
// examples/liar-detection.
func FabricateDelivery(ingressSamples SampleReceipt, ingressAggs []AggReceipt,
	egressPath PathID, claimedDelayNS int64) (SampleReceipt, []AggReceipt) {
	return core.FabricateDelivery(ingressSamples, ingressAggs, egressPath, claimedDelayNS)
}

// CoverUpReceipt is the collusion lie: a neighbor echoes a liar's
// fabricated claims, absorbing the blame.
func CoverUpReceipt(liarEgress SampleReceipt, ownPath PathID, linkDelayNS int64) SampleReceipt {
	return core.CoverUpReceipt(liarEgress, ownPath, linkDelayNS)
}

// CoverUpAggs forges matching aggregate receipts for a cover-up.
func CoverUpAggs(liarEgress []AggReceipt, ownPath PathID, linkDelayNS int64) []AggReceipt {
	return core.CoverUpAggs(liarEgress, ownPath, linkDelayNS)
}

// ShaveDelays is the delay-exaggeration lie: egress timestamps
// compressed toward ingress ones.
func ShaveDelays(ingress, egress SampleReceipt, factor float64) SampleReceipt {
	return core.ShaveDelays(ingress, egress, factor)
}

// NewCollector builds the standalone reference collector — the
// packet-at-a-time oracle; NewPathCollector builds the one to run.
func NewCollector(cfg CollectorConfig) (*Collector, error) { return core.NewCollector(cfg) }

// NewShardedCollector builds a standalone collector of the kind
// deployments run.
func NewShardedCollector(cfg CollectorConfig) (*ShardedCollector, error) {
	return core.NewShardedCollector(cfg)
}

// NewPathCollector builds the collector deployments run: a
// ShardedCollector.
func NewPathCollector(cfg CollectorConfig) (PathCollector, error) {
	return core.NewPathCollector(cfg)
}

// NewProcessor attaches a control-plane processor to a collector.
func NewProcessor(c PathCollector) *Processor { return core.NewProcessor(c) }

// NewDeployment wires collectors onto every HOP of a path.
func NewDeployment(p *Path, table *PrefixTable, cfg DeployConfig) (*Deployment, error) {
	return core.NewDeployment(p, table, cfg)
}

// DefaultDeployConfig returns the baseline protocol parameters.
func DefaultDeployConfig() DeployConfig { return core.DefaultDeployConfig() }

// Simulation substrate.
type (
	// Path is a linear inter-domain path.
	Path = netsim.Path
	// DomainSpec describes one domain on a path.
	DomainSpec = netsim.DomainSpec
	// LinkSpec describes one inter-domain link.
	LinkSpec = netsim.LinkSpec
	// Observer receives one HOP's packet observations.
	Observer = netsim.Observer
	// BatchObserver is the batched extension of Observer.
	BatchObserver = netsim.BatchObserver
	// Observation is one packet observation at a HOP.
	Observation = netsim.Observation
	// SimResult is a simulation run's ground truth.
	SimResult = netsim.Result
	// DomainTruth is one domain's ground truth.
	DomainTruth = netsim.DomainTruth
	// CongestionConfig describes a bottleneck congestion scenario.
	CongestionConfig = delaymodel.Config
	// CongestionQueue is the bottleneck delay source.
	CongestionQueue = delaymodel.Queue
	// GilbertElliott is the two-state bursty loss model.
	GilbertElliott = lossmodel.GilbertElliott
)

// Fig1Path builds the paper's five-domain example topology
// (S -> L -> X -> N -> D, HOPs 1..8).
func Fig1Path(seed uint64) *Path { return netsim.Fig1Path(seed) }

// Mesh & multipath topologies.
type (
	// Topology is a directed domain graph with a route table.
	Topology = netsim.Topology
	// TopoLink is one directed inter-domain link of a topology.
	TopoLink = netsim.TopoLink
	// Route is one traffic key's HOP sequence through a topology.
	Route = netsim.Route
	// TopoRunner drives traffic across a topology in segments.
	TopoRunner = netsim.TopoRunner
	// TopoResult is a topology simulation's ground truth.
	TopoResult = netsim.TopoResult
	// SharedBlame is one blame finding merged across traffic keys.
	SharedBlame = core.SharedBlame
)

// NewTopoRunner prepares persistent mesh simulation state.
func NewTopoRunner(t *Topology, table *PrefixTable) (*TopoRunner, error) {
	return netsim.NewTopoRunner(t, table)
}

// NewTopoDeployment places collectors on every routed HOP of a
// topology; verify per (key, route) via Deployment.KeyLayouts.
func NewTopoDeployment(t *Topology, table *PrefixTable, cfg DeployConfig) (*Deployment, error) {
	return core.NewTopoDeployment(t, table, cfg)
}

// MergeBlames condenses per-key blame findings into shared findings
// (one per evidence class and implicated HOP set, contributing keys
// counted) — how a mesh verifier names a faulty shared link.
func MergeBlames(perKey map[PathKey][]Blame) []SharedBlame { return core.MergeBlames(perKey) }

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
func BurstyUDPScenario(seed uint64) CongestionConfig { return delaymodel.BurstyUDPScenario(seed) }

// NewCongestionQueue builds a bottleneck delay source.
func NewCongestionQueue(cfg CongestionConfig) (*CongestionQueue, error) { return delaymodel.New(cfg) }

// GilbertElliottLoss builds a bursty loss process with the given
// stationary loss rate and mean burst length.
func GilbertElliottLoss(target, meanBurst float64, seed uint64) (*GilbertElliott, error) {
	return lossmodel.FromTargetLoss(target, meanBurst, stats.NewRNG(seed))
}

// Workloads.
type (
	// TraceConfig configures a synthetic trace.
	TraceConfig = trace.Config
	// TracePathSpec describes one path's traffic.
	TracePathSpec = trace.PathSpec
)

// DefaultTracePath returns a PathSpec at the given packet rate.
func DefaultTracePath(ratePPS float64) TracePathSpec { return trace.DefaultPath(ratePPS) }

// GenerateTrace materializes a synthetic trace.
func GenerateTrace(cfg TraceConfig) ([]Packet, error) { return trace.Generate(cfg) }

// Estimation.
type (
	// QuantileEstimate is a delay-quantile estimate with
	// distribution-free confidence bounds.
	QuantileEstimate = quantile.Estimate
)

// DefaultQuantiles are the quantiles reports cover (p50, p90, p99).
var DefaultQuantiles = quantile.DefaultQuantiles

// EstimateQuantile estimates one delay quantile from sampled delays.
func EstimateQuantile(delaysNS []float64, q, confidence float64) (QuantileEstimate, error) {
	return quantile.Quantile(delaysNS, q, confidence)
}

// Dissemination.
type (
	// ReceiptBundle is one signed reporting interval.
	ReceiptBundle = dissem.Bundle
	// SignedReceiptBundle is a bundle encoding plus its signature —
	// the unit of the streaming ingest path (Verifier.IngestBundles).
	SignedReceiptBundle = dissem.SignedBundle
	// BundleSigner signs bundles with a HOP's ed25519 key.
	BundleSigner = dissem.Signer
	// BundleServer publishes signed bundles over HTTP.
	BundleServer = dissem.Server
	// BundleClient fetches and authenticates bundles.
	BundleClient = dissem.Client
	// KeyRegistry maps HOPs to verification keys.
	KeyRegistry = dissem.Registry
)

// NewBundleSigner derives a signer from a 32-byte seed.
func NewBundleSigner(seed [32]byte) *BundleSigner { return dissem.NewSigner(seed) }

// NewBundleServer builds a bundle publisher for one HOP.
func NewBundleServer(hop HOPID, s *BundleSigner) *BundleServer { return dissem.NewServer(hop, s) }

// Continuous operation.
type (
	// EpochID is the ordinal of one reporting interval.
	EpochID = core.EpochID
	// EpochConfig parameterizes continuous multi-interval operation.
	EpochConfig = core.EpochConfig
	// WindowStats is an occupancy snapshot of the per-epoch receipt
	// window.
	WindowStats = core.WindowStats
	// EpochReport is the rolling verifier's per-epoch delta.
	EpochReport = core.EpochReport
	// EpochKeyReport is one traffic key's outcome within an epoch.
	EpochKeyReport = core.EpochKeyReport
	// TraceGenerator is the pull-based synthetic packet source; the
	// engine slices its stream at epoch boundaries.
	TraceGenerator = trace.Generator
)

// NewTraceGenerator builds a pull-based trace generator.
func NewTraceGenerator(cfg TraceConfig) (*TraceGenerator, error) { return trace.NewGenerator(cfg) }

// RunContinuous runs a deployment on a linear path as a stream of
// `epochs` rotating intervals through the epoch engine: each interval
// of gen's traffic is simulated as one segment, every HOP seals its
// epoch straight into the receipt window, and each epoch is verified
// once every HOP has sealed it — overlapping the next segment — and
// reported to onEpoch, while verified epochs older than ec.Retention
// are evicted. It returns the window's final occupancy.
func RunContinuous(path *Path, dep *Deployment, gen *TraceGenerator, ec EpochConfig, epochs int, onEpoch func(EpochReport, WindowStats)) (WindowStats, error) {
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
	sim, err := engine.PathSim(path, nil)
	if err != nil {
		return WindowStats{}, err
	}
	err = col.Run(context.Background(), engine.EpochSource(gen, ec.IntervalNS, epochs, nil), sim, ver)
	return ver.Window.Stats(), err
}
