package experiments

import (
	"fmt"

	"vpm/internal/baseline"
	"vpm/internal/core"
	"vpm/internal/delaymodel"
	"vpm/internal/hashing"
	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// AttackRow summarizes one protocol × adversary combination from the
// §3 design-space argument and the §5.1/§5.3 attack analyses.
type AttackRow struct {
	Protocol string
	Attack   string
	// TrueLossPct is what the domain actually did to its traffic;
	// EstLossPct is what a verifier computes from its receipts.
	TrueLossPct, EstLossPct float64
	// TrueP90MS / EstP90MS compare the 90th-percentile delay.
	TrueP90MS, EstP90MS float64
	// Detected reports whether the protocol exposed the manipulation
	// (receipt inconsistencies for VPM; always false for TS++ bias,
	// which is the point).
	Detected bool
	Note     string
}

// Attacks runs the §3 ablation suite: the same congested, lossy domain
// X under four protocols and the strongest applicable adversary.
//
//   - strawman / honest: exact measurements (reference row).
//   - TS++ / sampling bias: X recognizes sampled packets at forwarding
//     time and exempts them from loss and congestion — estimates turn
//     near-perfect, nothing is detected (§3.2).
//   - VPM / bias attempt: the best predictor X has is the public
//     marker threshold; preferring likely markers barely moves the
//     estimate because the σ-keyed samples are unpredictable (§5.1).
//   - VPM / blame shift: X fabricates delivery receipts; the verifier
//     flags the X-N link (§3.1, §4).
func Attacks(cfg Config) ([]AttackRow, error) {
	cfg = cfg.Normalize()
	const lossX = 0.20
	var rows []AttackRow

	// --- Strawman, honest (reference). ---
	{
		up, down := &baseline.Strawman{}, &baseline.Strawman{}
		truth, err := runBaselineWorld(cfg, lossX, up, down, nil)
		if err != nil {
			return nil, err
		}
		lost, delays := baseline.StrawmanCompare(up, down)
		rows = append(rows, AttackRow{
			Protocol:    "strawman",
			Attack:      "honest",
			TrueLossPct: truth.LossRate() * 100,
			EstLossPct:  float64(lost) / float64(truth.In) * 100,
			TrueP90MS:   p90ms(truth.TrueDelaysNS),
			EstP90MS:    p90ms(delays),
			Detected:    false,
			Note:        "exact but per-packet cost",
		})
	}

	// --- TS++ with the sampling-bias attack. ---
	{
		up := baseline.NewTrajectorySampling(0.01)
		down := baseline.NewTrajectorySampling(0.01)
		biased := func(_ *packet.Packet, digest uint64) bool { return up.Sampled(digest) }
		truth, err := runBaselineWorld(cfg, lossX, up, down, biased)
		if err != nil {
			return nil, err
		}
		est := baseline.TSPPCompare(up, down, cfg.Confidence)
		rows = append(rows, AttackRow{
			Protocol:    "TS++",
			Attack:      "sampling bias",
			TrueLossPct: truth.LossRate() * 100,
			EstLossPct:  est.LossRate * 100,
			TrueP90MS:   p90ms(truth.TrueDelaysNS),
			EstP90MS:    p90ms(est.DelaysNS),
			Detected:    false,
			Note:        "bias invisible: sampled packets identifiable at forwarding time",
		})
	}

	// --- VPM with the best available bias attempt. ---
	{
		markerMu := hashing.ThresholdForRate(core.DefaultDeployConfig().MarkerRate)
		biased := func(_ *packet.Packet, digest uint64) bool {
			// The adversary's only forwarding-time knowledge: markers
			// (public µ). Everything σ-keyed is unpredictable.
			return hashing.Exceeds(digest, markerMu)
		}
		w, err := buildVPMAttackWorld(cfg, lossX, biased)
		if err != nil {
			return nil, err
		}
		v := w.dep.NewVerifier(w.key)
		truth, _ := w.truth.DomainByName("X")
		rep, err := v.LossBetween(4, 5)
		if err != nil {
			return nil, err
		}
		delays := v.DelaysBetween(4, 5)
		// Extension: marker delays vs σ-keyed delays expose the
		// preference (markers are the only predictable samples).
		bias, biasErr := v.CheckMarkerBias(4, 5)
		detected := biasErr == nil && bias.Suspicious
		rows = append(rows, AttackRow{
			Protocol:    "VPM",
			Attack:      "bias attempt (prefer markers)",
			TrueLossPct: truth.LossRate() * 100,
			EstLossPct:  rep.Rate() * 100,
			TrueP90MS:   p90ms(truth.TrueDelaysNS),
			EstP90MS:    p90ms(delays),
			Detected:    detected,
			Note:        "loss exact; σ-keyed samples unpredictable; marker-vs-σ delay split flags the preference",
		})
	}

	// --- VPM with the blame-shift lie: X's control plane forges its
	// egress receipts from its ingress ones as the run is sealed. ---
	{
		w, err := buildVPMAttackWorld(cfg, lossX, nil)
		if err != nil {
			return nil, err
		}
		truth, _ := w.truth.DomainByName("X")
		v := core.NewVerifierFor(w.dep.Layout(), w.key)
		v.SetConfig(w.dep.VerifierConfig())
		w.dep.Seal(core.NewAdversarySink(v.Sink(), fabricatorForX(w.path)))
		rep, err := v.LossBetween(4, 5)
		if err != nil {
			return nil, err
		}
		verdict := v.CheckLink(5, 6)
		rows = append(rows, AttackRow{
			Protocol:    "VPM",
			Attack:      "blame shift (fabricate delivery)",
			TrueLossPct: truth.LossRate() * 100,
			EstLossPct:  rep.Rate() * 100,
			TrueP90MS:   p90ms(truth.TrueDelaysNS),
			EstP90MS:    -1,
			Detected:    !verdict.Consistent(),
			Note: fmt.Sprintf("%d violations at the X-N link expose the lie",
				len(verdict.Violations)),
		})
	}
	return rows, nil
}

// runBaselineWorld drives the Figure 1 world with observers only at
// X's ingress/egress, for the baseline protocols.
func runBaselineWorld(cfg Config, lossX float64, up, down netsim.Observer,
	biased func(*packet.Packet, uint64) bool) (*netsim.DomainTruth, error) {
	tc := trace.Config{
		Seed:       cfg.Seed + 17,
		DurationNS: cfg.DurationNS,
		Paths:      []trace.PathSpec{trace.DefaultPath(cfg.RatePPS)},
	}
	pkts, err := trace.Generate(tc)
	if err != nil {
		return nil, err
	}
	path := netsim.Fig1Path(cfg.Seed + 23)
	xi := path.DomainIndex("X")
	ge, err := lossmodel.FromTargetLoss(lossX, 8, stats.NewRNG(cfg.Seed+29))
	if err != nil {
		return nil, err
	}
	path.Domains[xi].Loss = ge
	q, err := delaymodel.New(delaymodel.BurstyUDPScenario(cfg.Seed + 31))
	if err != nil {
		return nil, err
	}
	path.Domains[xi].Delay = q
	path.Domains[xi].Preferential = biased
	res, err := path.Run(pkts, map[receipt.HOPID]netsim.Observer{4: up, 5: down})
	if err != nil {
		return nil, err
	}
	truth, _ := res.DomainByName("X")
	return truth, nil
}

// buildVPMAttackWorld is buildWorld with congestion, loss and an
// optional preferential-treatment hook inside X.
func buildVPMAttackWorld(cfg Config, lossX float64, biased func(*packet.Packet, uint64) bool) (*world, error) {
	tc := trace.Config{
		Seed:       cfg.Seed + 17,
		DurationNS: cfg.DurationNS,
		Paths:      []trace.PathSpec{trace.DefaultPath(cfg.RatePPS)},
	}
	pkts, err := trace.Generate(tc)
	if err != nil {
		return nil, err
	}
	path := netsim.Fig1Path(cfg.Seed + 23)
	xi := path.DomainIndex("X")
	ge, err := lossmodel.FromTargetLoss(lossX, 8, stats.NewRNG(cfg.Seed+29))
	if err != nil {
		return nil, err
	}
	path.Domains[xi].Loss = ge
	q, err := delaymodel.New(delaymodel.BurstyUDPScenario(cfg.Seed + 31))
	if err != nil {
		return nil, err
	}
	path.Domains[xi].Delay = q
	path.Domains[xi].Preferential = biased
	dep, err := core.NewDeployment(path, tc.Table(), core.DefaultDeployConfig())
	if err != nil {
		return nil, err
	}
	res, err := path.Run(pkts, dep.Observers())
	if err != nil {
		return nil, err
	}
	dep.Finalize()
	return &world{
		cfg:   cfg,
		pkts:  pkts,
		path:  path,
		dep:   dep,
		key:   packet.PathKey{Src: tc.Paths[0].SrcPrefix, Dst: tc.Paths[0].DstPrefix},
		truth: res,
	}, nil
}

func p90ms(delaysNS []float64) float64 {
	if len(delaysNS) == 0 {
		return -1
	}
	return stats.Quantile(delaysNS, 0.9) / 1e6
}
