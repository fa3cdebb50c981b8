package experiments

import (
	"context"
	"fmt"

	"vpm/internal/core"
	"vpm/internal/dissem"
	"vpm/internal/engine"
	"vpm/internal/netsim"
	"vpm/internal/receipt"
	"vpm/internal/seqdetect"
	"vpm/internal/trace"
)

// This file runs the pipeline the way a deployment would: continuously,
// over a stream of rotating epochs, with receipts travelling through
// signed per-epoch dissemination bundles and verification rolling one
// interval behind ingest. RunContinuousOpts builds the Fig1 world and
// runs internal/engine on it (as cmd/vpm-node does).

// ContinuousResult is the outcome of one continuous run.
type ContinuousResult struct {
	// EpochsRun counts the simulation segments driven (one per
	// configured epoch, fewer if verification failed).
	EpochsRun int
	// EpochsSealed counts the epochs every HOP sealed — EpochsRun plus
	// the terminal partial interval that propagation delay spills into.
	EpochsSealed int
	// Packets is the total traffic replayed.
	Packets int
	// SampleReceipts and AggReceipts count the receipts sealed across
	// all epochs and HOPs.
	SampleReceipts, AggReceipts int
	// Reports are the per-epoch verification deltas, in epoch order.
	Reports []core.EpochReport
	// Violations and MatchedSamples aggregate the reports.
	Violations     int
	MatchedSamples int64
	// Window is the windowed store's final occupancy — Segments stays
	// bounded by retention no matter how many epochs ran.
	Window core.WindowStats
	// Truth is the merged per-domain ground truth across all segments
	// (counts summed, true delays concatenated).
	Truth []netsim.DomainTruth
	// DissemFindings are the dissemination-layer blame findings the
	// engine classified instead of aborting on (engine.Verify.Findings).
	DissemFindings []core.Blame
	// Unverified lists the epochs still held unverified at shutdown
	// (empty on an honest run).
	Unverified []core.EpochID
}

// hopSigner derives a HOP's deterministic signing key for an
// experiment seed — the single derivation scheme every pipeline mode
// and tamper builder shares, so batch and continuous runs of the same
// scenario always agree on keys.
func hopSigner(seed uint64, hop receipt.HOPID) *dissem.Signer {
	var keySeed [32]byte
	keySeed[0], keySeed[1] = byte(seed), byte(hop)
	return dissem.NewSigner(keySeed)
}

// ContinuousOptions parameterizes RunContinuousOpts beyond the basic
// epoch configuration — the hooks the Byzantine attack matrix uses to
// corrupt each layer of the pipeline, plus operational knobs.
type ContinuousOptions struct {
	// OnEpoch receives each epoch's report as verification completes
	// (from the goroutine running the verify step).
	OnEpoch func(core.EpochReport, core.WindowStats)
	// MutatePath perturbs the Fig1 path (loss, congestion, skew)
	// before deployment.
	MutatePath func(*netsim.Path)
	// Deploy overrides the deployment config (nil: defaults).
	Deploy *core.DeployConfig
	// Wear dresses HOPs in data-plane adversaries: each HOP's
	// observation stream passes through its adversary before the
	// collector sees it.
	Wear map[receipt.HOPID]netsim.Adversary
	// WrapSink interposes control-plane adversaries between the epoch
	// driver and publication (see adversary.NewAdversarySink); it receives
	// the honest publish sink and returns the sink the driver uses.
	WrapSink func(core.EpochSink) core.EpochSink
	// Tamper installs dissemination-layer attacks on the named HOPs'
	// bundle servers.
	Tamper map[receipt.HOPID]dissem.BundleTamper
	// BiasChecks enables the per-epoch marker-bias check in rolling
	// verification.
	BiasChecks bool
	// Sequential, when non-nil, arms the rolling verifier's concurrent
	// SPRT arm (see core.VerifierConfig.Sequential): early sequential
	// verdicts ride on each EpochReport's Seq field while the batch
	// verdicts stay byte-identical to an unarmed run.
	Sequential *seqdetect.Config
	// Backend attaches a durable store backend beneath the windowed
	// store (see core.StoreBackend): sealed epochs and verdict reports
	// persist to it, and epochs already durable from a previous run are
	// neither re-persisted nor re-verified.
	Backend core.StoreBackend
}

// RunContinuousOpts drives the Fig1 workload over `epochs` rotating
// intervals through internal/engine: each epoch's packets are
// generated and simulated as one segment, every HOP's sealed epoch is
// published as an ed25519-signed epoch-tagged bundle on an in-memory
// bus, and the verify half drains the bundles into a windowed store,
// verifies each interval once every HOP has sealed it — overlapping
// the next epoch's simulation — and evicts what has aged out.
//
// opts adds path perturbation, per-layer adversaries (data plane,
// control plane, dissemination), bias checks, the SPRT arm and a
// durable backend. When the engine fails mid-stream the result so far
// is returned with the error.
func RunContinuousOpts(cfg Config, ec core.EpochConfig, epochs int, opts ContinuousOptions) (*ContinuousResult, error) {
	cfg = cfg.Normalize()
	if err := ec.Validate(); err != nil {
		return nil, err
	}
	if epochs < 1 {
		return nil, fmt.Errorf("experiments: need at least one epoch, got %d", epochs)
	}
	tc := trace.Config{
		Seed:       cfg.Seed,
		DurationNS: int64(epochs) * ec.IntervalNS,
		Paths:      []trace.PathSpec{trace.DefaultPath(cfg.RatePPS)},
	}
	gen, err := trace.NewGenerator(tc)
	if err != nil {
		return nil, err
	}
	path := netsim.Fig1Path(cfg.Seed + 1000)
	if opts.MutatePath != nil {
		opts.MutatePath(path)
	}
	dc := core.DefaultDeployConfig()
	if opts.Deploy != nil {
		dc = *opts.Deploy
	}
	dep, err := core.NewDeployment(path, tc.Table(), dc)
	if err != nil {
		return nil, err
	}
	hops := dep.HOPs()

	bus := engine.NewBusTransport(hops, func(h receipt.HOPID) *dissem.Signer { return hopSigner(cfg.Seed, h) })
	for id, t := range opts.Tamper {
		if srv, ok := bus.Servers[id]; ok {
			srv.SetTamper(t)
		}
	}
	vc := dep.VerifierConfig()
	vc.BiasChecks = opts.BiasChecks
	vc.Sequential = opts.Sequential
	ver, err := engine.NewVerify(
		engine.Store{HOPs: hops, Retention: ec.Retention, Backend: opts.Backend},
		engine.Checks{Config: vc, Layout: dep.Layout(), Confidence: cfg.Confidence})
	if err != nil {
		return nil, err
	}
	ver.Feeds = bus.Feeds()
	res := &ContinuousResult{}
	ver.OnEpoch = func(rep core.EpochReport, ws core.WindowStats) {
		res.Reports = append(res.Reports, rep)
		if opts.OnEpoch != nil {
			opts.OnEpoch(rep, ws)
		}
	}

	// Control-plane adversaries wrap the honest publish sink, so the
	// receipt counters and the published bundles both reflect what the
	// lying control planes actually emitted.
	sink := bus.Sink()
	if opts.WrapSink != nil {
		sink = opts.WrapSink(sink)
	}
	col, err := engine.NewCollect(dep, hops, ec.IntervalNS, 0, sink)
	if err != nil {
		return nil, err
	}
	for hop, adv := range opts.Wear {
		if obs, ok := col.Observers[hop]; ok && adv != nil {
			col.Observers[hop] = netsim.Wear(hop, adv, obs)
		}
	}
	sim, err := engine.NewSim(dep.Topo, dep.Table, func(seg *netsim.Result) {
		if res.Truth == nil {
			res.Truth = make([]netsim.DomainTruth, len(seg.Domains))
			for i, d := range seg.Domains {
				res.Truth[i] = netsim.DomainTruth{Name: d.Name}
			}
		}
		for i, d := range seg.Domains {
			res.Truth[i].In += d.In
			res.Truth[i].Out += d.Out
			res.Truth[i].DroppedInside += d.DroppedInside
			res.Truth[i].TrueDelaysNS = append(res.Truth[i].TrueDelaysNS, d.TrueDelaysNS...)
		}
	})
	if err != nil {
		return nil, err
	}
	runErr := col.Run(context.TODO(), engine.EpochSource(gen, ec.IntervalNS, epochs, nil), sim, ver)

	res.EpochsRun, res.Packets = col.Segments, col.Packets
	res.SampleReceipts, res.AggReceipts = int(bus.Samples.Load()), int(bus.Aggs.Load())
	res.Violations, res.MatchedSamples = ver.Violations, ver.MatchedSamples
	res.DissemFindings = ver.Findings
	res.Window = ver.Window.Stats()
	if runErr != nil {
		return res, runErr
	}
	res.EpochsSealed = int(col.Terminal) + 1
	res.Unverified = ver.Window.UnverifiedEpochs()
	return res, nil
}
