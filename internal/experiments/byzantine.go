package experiments

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"vpm/internal/adversary"
	"vpm/internal/core"
	"vpm/internal/delaymodel"
	"vpm/internal/dissem"
	"vpm/internal/engine"
	"vpm/internal/hashing"
	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/seqdetect"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// This file wires the Byzantine HOP framework into a full adversary
// matrix over the Figure 1 path: every attack the threat model (§2.1,
// §3, §5) admits — at the data plane, the control plane, and the
// dissemination layer — driven through the one-shot batch pipeline AND
// the continuous epoch pipeline, with each outcome judged against the
// paper's guarantee: the attack is either *detected with the right
// blame* (narrowest implicated HOP set, right evidence class, right
// epoch), *contained* (a colluding set absorbs the loss it hid), or
// *provably harmless* (the estimates move less than the noise floor).
// Honest links must stay violation-free throughout — detection without
// localization would be useless for §3.1's exposure argument.

// Matrix world constants: domain X drops ~20% and, in most scenarios,
// is congested; the marker rate is raised above the deployment default
// so per-epoch marker populations are large enough for the §5.1 bias
// check even at test scale (tuning σ/µ per deployment is the paper's
// §2.2 knob, not a protocol change).
const (
	matrixLossX      = 0.20
	matrixMarkerRate = 0.004
	matrixSampleRate = 0.02
	// matrixAggRate cuts one aggregate per ~1000 packets, so every
	// epoch holds several commonly-bounded aggregate pairs — per-epoch
	// loss estimates need complete aggregates inside the evidence
	// window (the deployment default of one per ~100k packets yields
	// none at matrix scale).
	matrixAggRate = 0.001
	// fewRecords is how many of X's egress sample records the
	// drop-few-records row deletes on average from its one batch epoch:
	// 5 in the BENCH_4 world, 4 in the BENCH_8 world.
	fewRecords = 2.5
	// matrixEpochs is the number of rotation intervals the continuous
	// arm drives; the total trace duration matches the batch arm.
	matrixEpochs = 4
)

// Matrix-world HOP geography (netsim.Fig1Path): S=1, L=2/3, X=4/5,
// N=6/7, D=8.
const (
	hopLEgress   = receipt.HOPID(3)
	hopXIngress  = receipt.HOPID(4)
	hopXEgress   = receipt.HOPID(5)
	hopNIngress  = receipt.HOPID(6)
	hopNEgress   = receipt.HOPID(7)
	shaveBlatant = 3_000_000 // 3 ms: past MaxDiff on every matched sample
	shaveSubtle  = 1_800_000 // 1.8 ms: inside MaxDiff, but impossible marker stats
	// shaveFloor / shaveDuty are the adaptive shaves: both leave the
	// honest ~1.05 ms link delta inside the 3 ms MaxDiff, so a
	// per-epoch DelayBound check never fires at these magnitudes —
	// only the cross-epoch sequential mean test sees the shift.
	shaveFloor = 1_200_000
	shaveDuty  = 1_350_000
)

// MatrixRow is one adversary × mode outcome of the attack matrix.
type MatrixRow struct {
	Adversary string `json:"adversary"`
	// Layer is where the attack is mounted: data-plane (corrupted
	// observations), control-plane (rewritten sealed receipts), or
	// dissemination (withheld/replayed/equivocated bundles).
	Layer string `json:"layer"`
	Mode  string `json:"mode"` // "batch" or "continuous"
	// Verdict is the judged outcome: "honest" (reference row),
	// "detected" (flagged with blame), "contained" (collusion absorbed
	// the hidden loss inside the colluding set), "harmless" (estimates
	// moved less than the noise floor), or "undetected" (the framework
	// failed — tests forbid it).
	Verdict string `json:"verdict"`
	// Localized reports that every blame finding stayed inside the
	// expected implicated set.
	Localized bool `json:"localized"`
	// Evidence lists the distinct evidence classes observed.
	Evidence string `json:"evidence"`
	// BlamedHOPs is the union of implicated HOPs across findings.
	BlamedHOPs []uint32 `json:"blamed_hops,omitempty"`
	// FlaggedEpochs lists the epochs carrying findings (continuous
	// mode; batch is epoch 0).
	FlaggedEpochs []uint64 `json:"flagged_epochs,omitempty"`
	// HonestLinkViolations counts violations on links outside the
	// expected implicated set — must be zero.
	HonestLinkViolations int `json:"honest_link_violations"`
	// TrueLossPct / EstLossPct and TrueP90MS / EstP90MS compare domain
	// X's ground truth with what a verifier computes from the
	// (possibly lying) receipts.
	TrueLossPct float64 `json:"true_loss_pct"`
	EstLossPct  float64 `json:"est_loss_pct"`
	TrueP90MS   float64 `json:"true_p90_ms"`
	EstP90MS    float64 `json:"est_p90_ms"`
	// Detection-latency columns. BatchEpochsToVerdict is how many
	// whole epochs of evidence the per-epoch batch checks needed
	// before the first blame (min flagged epoch + 1; 0 = batch never
	// flagged). SeqEpochsToVerdict is the sequential arm's crossing
	// point in fractional epochs (crossing epoch + mid-epoch
	// fraction); a value below 1.0 means the SPRT crossed before the
	// first batch judgment was even possible. Continuous mode only —
	// the batch pipeline has a single epoch and no sequential arm.
	BatchEpochsToVerdict float64 `json:"batch_epochs_to_verdict"`
	SeqDetected          bool    `json:"seq_detected"`
	SeqEpochsToVerdict   float64 `json:"seq_epochs_to_verdict"`
	// MinDetectableSigma is the smallest mean shift (in σ units) the
	// configured SPRT can expect to detect within one epoch's worth of
	// per-link evidence — the row's noise-floor context for the
	// latency columns (seqdetect.MinDetectableShiftSigma).
	MinDetectableSigma float64 `json:"min_detectable_magnitude_sigma"`
	Note               string  `json:"note"`
}

// expectation is a scenario's contract with the §3/§5 analysis.
type expectation struct {
	// verdict the scenario must reach ("detected", "contained",
	// "harmless", "honest").
	verdict string
	// hops is the allowed implicated set: every blame finding must
	// stay inside it.
	hops []receipt.HOPID
	// evidence is the allowed evidence-class set.
	evidence []core.EvidenceClass
}

// matrixScenario describes one adversary: how to mount it on a fresh
// world (per mode) and what outcome the paper promises. Builders run
// per mode so stateful adversaries are never shared between runs.
type matrixScenario struct {
	name  string
	layer string
	// modes the scenario runs in (nil = both).
	modes []string
	// congestX attaches the bursty bottleneck inside X.
	congestX bool
	// preferential installs a forwarding-time treatment predicate in X
	// (data-plane, mounted inside the simulated network).
	preferential func(mu uint64) func(*packet.Packet, uint64) bool
	// wear returns data-plane adversaries to dress HOPs in.
	wear func(mu uint64) map[receipt.HOPID]netsim.Adversary
	// domainAdvs returns control-plane adversaries, in tap order.
	domainAdvs func(p *netsim.Path) []adversary.EpochAdversary
	// tamper returns dissemination tampers per origin HOP for the
	// given mode (batch publishes everything as epoch 0). The signer
	// argument resolves an origin's key (equivocation re-signs).
	tamper func(mode string, signer func(receipt.HOPID) *dissem.Signer) map[receipt.HOPID]dissem.BundleTamper
	expect expectation
	note   string
}

// matrixScenarios builds the adversary roster. cfg sizes the adaptive
// adversaries' schedules: their decay half-lives and duty periods are
// fractions of the continuous arm's rotation interval, so the same
// scenario stays "adaptive" (loud opening, sub-threshold floor) at any
// trace duration.
func matrixScenarios(cfg Config) []matrixScenario {
	cfg = cfg.Normalize()
	intervalNS := cfg.DurationNS / matrixEpochs
	if intervalNS < 1 {
		intervalNS = cfg.DurationNS
	}
	allLinkEvidence := []core.EvidenceClass{core.EvMissingReceipt, core.EvInconsistentAggregate, core.EvDelayBound}
	xnHOPs := []receipt.HOPID{hopXEgress, hopNIngress}
	lxHOPs := []receipt.HOPID{hopLEgress, hopXIngress}
	xHOPs := []receipt.HOPID{hopXIngress, hopXEgress}
	return []matrixScenario{
		{
			name: "honest", layer: "none", congestX: true,
			expect: expectation{verdict: "honest"},
			note:   "reference row: lossy, congested X telling the truth",
		},
		{
			name: "bias-blind", layer: "data-plane", congestX: true,
			preferential: func(mu uint64) func(*packet.Packet, uint64) bool {
				// The adversary guesses which packets are σ-sampled
				// without the key: any digest predicate uncorrelated
				// with SampleFcn. It treats ~10% of traffic
				// preferentially and gains nothing (§5.1).
				return func(_ *packet.Packet, digest uint64) bool { return digest&0xff < 26 }
			},
			// A marginal bias detection on X is acceptable (the judge's
			// harmless branch allows detected-with-localization); the
			// allowed set makes such a detection localize instead of
			// reading as misattribution.
			expect: expectation{verdict: "harmless", hops: xHOPs, evidence: []core.EvidenceClass{core.EvMarkerBias}},
			note:   "σ-keyed samples unpredictable: preferential treatment moves no estimate",
		},
		{
			name: "prefer-markers", layer: "data-plane", congestX: true,
			preferential: func(mu uint64) func(*packet.Packet, uint64) bool {
				// The only forwarding-time-predictable samples are the
				// markers (µ is public); exempting them from loss and
				// congestion flatters the visible tail (§5.1).
				return func(_ *packet.Packet, digest uint64) bool { return hashing.Exceeds(digest, mu) }
			},
			expect: expectation{verdict: "detected", hops: xHOPs, evidence: []core.EvidenceClass{core.EvMarkerBias}},
			note:   "loss stays exact; marker-vs-σ delay split flags the preference",
		},
		{
			name: "delay-underreport", layer: "data-plane", congestX: true,
			wear: func(uint64) map[receipt.HOPID]netsim.Adversary {
				return map[receipt.HOPID]netsim.Adversary{hopXEgress: &adversary.DelayShaver{ShaveNS: shaveBlatant}}
			},
			expect: expectation{verdict: "detected", hops: xnHOPs, evidence: []core.EvidenceClass{core.EvDelayBound}},
			note:   "shaved egress clocks blow the X-N MaxDiff bound",
		},
		{
			name: "suppress-ingress", layer: "data-plane", congestX: true,
			wear: func(uint64) map[receipt.HOPID]netsim.Adversary {
				return map[receipt.HOPID]netsim.Adversary{hopXIngress: &netsim.Suppressor{Fraction: 0.3, Seed: 99}}
			},
			expect: expectation{verdict: "detected", hops: lxHOPs, evidence: allLinkEvidence},
			note:   "packets L delivered go unreported by X: exposed on the L-X link",
		},
		{
			name: "marker-shave", layer: "data-plane",
			wear: func(mu uint64) map[receipt.HOPID]netsim.Adversary {
				return map[receipt.HOPID]netsim.Adversary{hopXEgress: &adversary.MarkerShaver{Mu: mu, ShaveNS: shaveSubtle}}
			},
			expect: expectation{verdict: "detected", hops: xHOPs, evidence: []core.EvidenceClass{core.EvMarkerBias}},
			note:   "markers shaved inside MaxDiff: only the bias split catches it",
		},
		{
			name: "adaptive-shave", layer: "data-plane", congestX: true,
			modes: []string{"continuous"},
			wear: func(uint64) map[receipt.HOPID]netsim.Adversary {
				return map[receipt.HOPID]netsim.Adversary{hopXEgress: &adversary.AdaptiveShaver{
					InitialShaveNS: shaveBlatant,
					FloorNS:        shaveFloor,
					HalfLifeNS:     intervalNS / 2,
				}}
			},
			expect: expectation{verdict: "detected", hops: xnHOPs, evidence: []core.EvidenceClass{core.EvDelayBound}},
			note:   "loud opening decays under MaxDiff within an epoch; the SPRT latches mid-epoch and holds through the quiet floor",
		},
		{
			name: "adaptive-shave-duty", layer: "data-plane", congestX: true,
			modes: []string{"continuous"},
			wear: func(uint64) map[receipt.HOPID]netsim.Adversary {
				return map[receipt.HOPID]netsim.Adversary{hopXEgress: &adversary.AdaptiveShaver{
					InitialShaveNS: shaveDuty,
					FloorNS:        shaveDuty,
					PeriodNS:       intervalNS / 2,
					Duty:           0.5,
				}}
			},
			expect: expectation{verdict: "detected", hops: xnHOPs, evidence: []core.EvidenceClass{core.EvDelayBound}},
			note:   "sub-MaxDiff duty-cycled shave: every batch epoch stays quiet; only the sequential arm accumulates across on-phases",
		},
		{
			name: "adaptive-suppress", layer: "data-plane", congestX: true,
			modes: []string{"continuous"},
			wear: func(uint64) map[receipt.HOPID]netsim.Adversary {
				return map[receipt.HOPID]netsim.Adversary{hopXIngress: &adversary.AdaptiveSuppressor{
					InitialFraction: 0.12,
					FloorFraction:   0.08,
					HalfLifeNS:      intervalNS,
					Seed:            99,
				}}
			},
			expect: expectation{verdict: "detected", hops: lxHOPs, evidence: allLinkEvidence},
			note:   "drops decay toward 8 % of X's ingress observations; every unexcused missing record, exact aggregate counts and the cross-epoch Bernoulli SPRT expose them",
		},
		{
			name: "drop-records", layer: "control-plane", congestX: true,
			domainAdvs: func(*netsim.Path) []adversary.EpochAdversary {
				return []adversary.EpochAdversary{&adversary.RecordDropper{HOP: hopXEgress, Fraction: 0.5, Seed: 7}}
			},
			expect: expectation{verdict: "detected", hops: xnHOPs, evidence: []core.EvidenceClass{core.EvMissingReceipt}},
			note:   "deleted sample records reappear as missing-receipt evidence at X-N",
		},
		{
			name: "drop-few-records", layer: "control-plane", congestX: true,
			modes: []string{"batch"},
			domainAdvs: func(*netsim.Path) []adversary.EpochAdversary {
				// X's egress reports the σ-samples and markers of the traffic it does not lose.
				records := cfg.RatePPS * float64(cfg.DurationNS) / 1e9 * (matrixSampleRate + matrixMarkerRate) * (1 - matrixLossX)
				return []adversary.EpochAdversary{&adversary.RecordDropper{HOP: hopXEgress, Fraction: fewRecords / records, Seed: 7}}
			},
			expect: expectation{verdict: "detected", hops: xnHOPs, evidence: []core.EvidenceClass{core.EvMissingReceipt}},
			note:   "at most 5 deleted sample records in the epoch, under the 10 a link check once forgave, are each missing-receipt evidence at X-N",
		},
		{
			name: "fabricate", layer: "control-plane", congestX: true,
			domainAdvs: func(p *netsim.Path) []adversary.EpochAdversary {
				return []adversary.EpochAdversary{fabricatorForX(p)}
			},
			expect: expectation{verdict: "detected", hops: xnHOPs, evidence: allLinkEvidence},
			note:   "forged deliveries have no downstream record: exposed at X-N",
		},
		{
			name: "collude", layer: "control-plane", congestX: true,
			domainAdvs: func(p *netsim.Path) []adversary.EpochAdversary {
				return []adversary.EpochAdversary{fabricatorForX(p), colluderForN(p)}
			},
			expect: expectation{verdict: "contained",
				hops: []receipt.HOPID{hopXIngress, hopXEgress, hopNIngress, hopNEgress}},
			note: "N covers X's forgery: the hidden loss resurfaces inside N (§3.1)",
		},
		{
			name: "withhold", layer: "dissemination", congestX: true,
			tamper: func(mode string, _ func(receipt.HOPID) *dissem.Signer) map[receipt.HOPID]dissem.BundleTamper {
				from := uint64(matrixEpochs / 2)
				if mode == "batch" {
					from = 0 // batch publishes everything as epoch 0
				}
				return map[receipt.HOPID]dissem.BundleTamper{hopXEgress: &adversary.Withholder{FromEpoch: from}}
			},
			expect: expectation{verdict: "detected", hops: []receipt.HOPID{hopXEgress},
				evidence: []core.EvidenceClass{core.EvWithheldBundle}},
			note: "starved epochs never seal; the missing seal names the withholder",
		},
		{
			name: "stale-replay", layer: "dissemination", congestX: true,
			modes: []string{"continuous"},
			tamper: func(string, func(receipt.HOPID) *dissem.Signer) map[receipt.HOPID]dissem.BundleTamper {
				return map[receipt.HOPID]dissem.BundleTamper{hopXEgress: &adversary.Replayer{FromEpoch: matrixEpochs / 2}}
			},
			expect: expectation{verdict: "detected", hops: []receipt.HOPID{hopXEgress},
				evidence: []core.EvidenceClass{core.EvEpochReplay, core.EvWithheldBundle}},
			note: "re-served sealed epochs are refused as stale; fresh epochs starve",
		},
		{
			name: "equivocate", layer: "dissemination", congestX: true,
			modes: []string{"batch"},
			tamper: func(_ string, signer func(receipt.HOPID) *dissem.Signer) map[receipt.HOPID]dissem.BundleTamper {
				return map[receipt.HOPID]dissem.BundleTamper{hopXEgress: &adversary.Equivocator{
					Signer: signer(hopXEgress),
					Victim: "B",
					Mutate: func(b *dissem.Bundle) {
						for i := range b.Samples {
							for j := range b.Samples[i].Samples {
								b.Samples[i].Samples[j].TimeNS -= shaveBlatant
							}
						}
					},
				}}
			},
			expect: expectation{verdict: "detected", hops: []receipt.HOPID{hopXEgress},
				evidence: []core.EvidenceClass{core.EvEquivocation}},
			note: "two valid signatures over mismatched payloads: non-repudiable proof",
		},
	}
}

// fabricatorForX builds the §3.1 blame-shift adversary for domain X on
// the given path.
func fabricatorForX(p *netsim.Path) *adversary.Fabricator {
	xi := p.DomainIndex("X")
	return &adversary.Fabricator{
		Ingress: hopXIngress,
		Egress:  hopXEgress,
		RewritePath: func(in receipt.PathID) receipt.PathID {
			return p.PathIDFor(receipt.PathID{Key: in.Key}, xi, false)
		},
		ClaimedDelayNS: 500_000,
	}
}

// colluderForN builds the cover-up adversary for domain N.
func colluderForN(p *netsim.Path) *adversary.Colluder {
	ni := p.DomainIndex("N")
	return &adversary.Colluder{
		LiarEgress: hopXEgress,
		OwnIngress: hopNIngress,
		RewritePath: func(liar receipt.PathID) receipt.PathID {
			return p.PathIDFor(receipt.PathID{Key: liar.Key}, ni, true)
		},
		LinkDelayNS: netsim.DefaultLinkDelayNS,
	}
}

// matrixDeploy is the deployment the matrix worlds share.
func matrixDeploy() core.DeployConfig {
	dc := core.DefaultDeployConfig()
	dc.MarkerRate = matrixMarkerRate
	dc.Default.SampleRate = matrixSampleRate
	dc.Default.AggRate = matrixAggRate
	return dc
}

// runsIn reports whether the scenario participates in mode.
func (sc *matrixScenario) runsIn(mode string) bool {
	if len(sc.modes) == 0 {
		return true
	}
	for _, m := range sc.modes {
		if m == mode {
			return true
		}
	}
	return false
}

// AttackMatrix runs every scenario in both pipelines and judges the
// outcomes. cfg.DurationNS is the total trace length; the continuous
// arm splits it into matrixEpochs rotation intervals. The honest
// scenario runs first in each mode and serves as the noise-floor
// baseline for the "harmless" judgments: an estimator's own honest
// deviation from ground truth bounds what an attack may add.
func AttackMatrix(cfg Config) ([]MatrixRow, error) {
	cfg = cfg.Normalize()
	var rows []MatrixRow
	baselines := map[string]*matrixOutcome{}
	for _, sc := range matrixScenarios(cfg) {
		sc := sc
		for _, mode := range []string{"batch", "continuous"} {
			if !sc.runsIn(mode) {
				continue
			}
			var out *matrixOutcome
			var err error
			if mode == "batch" {
				out, err = runBatchScenario(cfg, &sc)
			} else {
				out, err = runContinuousScenario(cfg, &sc)
			}
			if err != nil {
				return nil, fmt.Errorf("experiments: matrix %s/%s: %w", sc.name, mode, err)
			}
			if sc.name == "honest" {
				baselines[mode] = out
			}
			rows = append(rows, judge(&sc, mode, out, baselines[mode]))
		}
	}
	// Mesh rows: the same guarantee on a shared-link topology — an
	// adversary on a link carrying many traffic keys is exposed by all
	// of them, without smearing blame onto the disjoint honest routes.
	meshRows, err := MeshAttackRows(cfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, meshRows...)
	return rows, nil
}

// matrixOutcome is what a mode runner hands the judge.
type matrixOutcome struct {
	blames       []core.Blame
	linkVerdicts map[uint64][]core.LinkVerdict // per epoch
	truth        *netsim.DomainTruth           // domain X ground truth
	estLoss      float64
	estP90MS     float64
	domainLoss   map[string]float64 // per-domain estimated loss rate
	// batchEpochs is the batch arm's epochs-to-verdict (min flagged
	// epoch + 1; 0 = never flagged), computed before any sequential
	// blames are folded in. seq holds the sequential arm's early
	// verdicts (continuous mode only). perEpochN is the mean matched
	// samples one link contributes per epoch — the n that sizes the
	// minimum detectable shift.
	batchEpochs float64
	seq         []seqdetect.SeqVerdict
	perEpochN   float64
}

// matrixSeqConfig is the sequential operating point the continuous
// matrix arm runs: the seqdetect defaults, whose evidence-class
// parameters match the Fig1 healthy-path constants the matrix world
// inherits (1 ms link delay, 0.1 ms jitter).
func matrixSeqConfig() seqdetect.Config { return seqdetect.DefaultConfig() }

// seqBlameEvidence maps a sequential evidence class onto the blame
// evidence class its batch counterpart files, so the judge's
// localization contract applies unchanged to early verdicts.
func seqBlameEvidence(c seqdetect.Class) core.EvidenceClass {
	switch c {
	case seqdetect.ClassDelay:
		return core.EvDelayBound
	case seqdetect.ClassBias:
		return core.EvMarkerBias
	default: // loss and fabrication both surface as missing receipts
		return core.EvMissingReceipt
	}
}

// seqBlame converts an early sequential verdict into a blame finding
// on the implicated HOP pair.
func seqBlame(v seqdetect.SeqVerdict) core.Blame {
	return core.Blame{
		Epoch:    core.EpochID(v.Epoch),
		Evidence: seqBlameEvidence(v.Class),
		LinkID:   -1,
		HOPs:     []receipt.HOPID{receipt.HOPID(v.Up), receipt.HOPID(v.Down)},
		Count:    int(v.N),
		Detail: fmt.Sprintf("sequential %s crossing at %.2f epochs (stat %.1f after %d items)",
			v.Class, v.EpochsToVerdict(), v.Stat, v.N),
	}
}

// mutateMatrixPath perturbs the Fig1 path into the scenario's world.
func mutateMatrixPath(cfg Config, sc *matrixScenario, mu uint64) func(*netsim.Path) {
	return func(p *netsim.Path) {
		xi := p.DomainIndex("X")
		ge, err := lossmodel.FromTargetLoss(matrixLossX, 8, stats.NewRNG(cfg.Seed+29))
		if err != nil {
			panic(err) // static parameters; cannot fail
		}
		p.Domains[xi].Loss = ge
		if sc.congestX {
			q, err := delaymodel.New(delaymodel.BurstyUDPScenario(cfg.Seed + 31))
			if err != nil {
				panic(err)
			}
			p.Domains[xi].Delay = q
		}
		if sc.preferential != nil {
			p.Domains[xi].Preferential = sc.preferential(mu)
		}
	}
}

// judge turns an outcome into a MatrixRow against the scenario's
// expectation. base is the honest run of the same mode (nil only when
// judging the honest run itself), whose deviation from ground truth
// calibrates the noise floor.
func judge(sc *matrixScenario, mode string, out *matrixOutcome, base *matrixOutcome) MatrixRow {
	row := MatrixRow{
		Adversary: sc.name,
		Layer:     sc.layer,
		Mode:      mode,
		Note:      sc.note,
	}
	if out.truth != nil {
		row.TrueLossPct = out.truth.LossRate() * 100
		row.TrueP90MS = p90ms(out.truth.TrueDelaysNS)
	}
	row.EstLossPct = out.estLoss * 100
	row.EstP90MS = out.estP90MS
	row.BatchEpochsToVerdict = out.batchEpochs
	row.SeqDetected = len(out.seq) > 0
	if row.SeqDetected {
		min := math.Inf(1)
		for _, v := range out.seq {
			if e := v.EpochsToVerdict(); e < min {
				min = e
			}
		}
		row.SeqEpochsToVerdict = min
	}
	if n := int(out.perEpochN); n > 0 {
		sq := matrixSeqConfig()
		row.MinDetectableSigma = seqdetect.MinDetectableShiftSigma(sq.Alpha, sq.Beta, n)
	}

	allowed := make(map[receipt.HOPID]bool)
	for _, h := range sc.expect.hops {
		allowed[h] = true
	}
	allowedEv := make(map[core.EvidenceClass]bool)
	for _, e := range sc.expect.evidence {
		allowedEv[e] = true
	}

	evSeen := make(map[string]bool)
	hopSeen := make(map[receipt.HOPID]bool)
	epochSeen := make(map[uint64]bool)
	localized := true
	for _, b := range out.blames {
		evSeen[b.Evidence.String()] = true
		epochSeen[uint64(b.Epoch)] = true
		inSet := true
		for _, h := range b.HOPs {
			hopSeen[h] = true
			if !allowed[h] {
				inSet = false
			}
		}
		if !inSet || (len(allowedEv) > 0 && !allowedEv[b.Evidence]) {
			localized = false
		}
	}
	// Violations on links whose endpoints lie outside the expected set
	// are misattributions — the §3.1 guarantee says honest links stay
	// clean.
	for _, verdicts := range out.linkVerdicts {
		for _, lv := range verdicts {
			if !allowed[lv.Up] && !allowed[lv.Down] {
				row.HonestLinkViolations += len(lv.Violations)
			}
		}
	}

	for ev := range evSeen {
		row.Evidence = appendCSV(row.Evidence, ev)
	}
	row.Evidence = sortCSV(row.Evidence)
	for h := range hopSeen {
		row.BlamedHOPs = append(row.BlamedHOPs, uint32(h))
	}
	sort.Slice(row.BlamedHOPs, func(i, j int) bool { return row.BlamedHOPs[i] < row.BlamedHOPs[j] })
	for e := range epochSeen {
		row.FlaggedEpochs = append(row.FlaggedEpochs, e)
	}
	sort.Slice(row.FlaggedEpochs, func(i, j int) bool { return row.FlaggedEpochs[i] < row.FlaggedEpochs[j] })

	detected := len(out.blames) > 0
	switch sc.expect.verdict {
	case "honest":
		row.Verdict = "honest"
		if detected {
			row.Verdict = "undetected" // false positives on the honest row
			row.Note = "FALSE POSITIVE: " + row.Note
		}
		row.Localized = !detected
	case "harmless":
		row.Localized = true
		if detected {
			// A harmless attack that still trips a detector is fine —
			// but only with correct localization.
			row.Verdict = "detected"
			row.Localized = localized && row.HonestLinkViolations == 0
		} else if out.harmlessShift(base) {
			row.Verdict = "harmless"
		} else {
			row.Verdict = "undetected"
		}
	case "contained":
		// Collusion: no blame expected; the hidden loss must resurface
		// inside the colluding set (N's estimate absorbs what X hid).
		absorbed := out.domainLoss["X"]+out.domainLoss["N"] >= out.truth.LossRate()-containLossTolerance
		if detected && !localized {
			row.Verdict = "undetected"
		} else if absorbed {
			row.Verdict = "contained"
			row.Localized = row.HonestLinkViolations == 0
		} else {
			row.Verdict = "undetected"
		}
	default: // "detected"
		if detected {
			row.Verdict = "detected"
			row.Localized = localized && row.HonestLinkViolations == 0
		} else {
			row.Verdict = "undetected"
		}
	}
	return row
}

// Noise floors for the "harmless" judgment (§5.3 scale): loss is
// counted exactly by aggregates, so anything past one percentage point
// is a real shift; delay estimates carry quantile-CI and estimator
// noise, bounded at 20% relative or 1.5× whatever deviation the same
// estimator showed on the honest run, whichever is larger.
const (
	noiseLossPct         = 1.0
	noiseP90Rel          = 0.20
	containLossTolerance = 0.03
)

// harmlessShift reports whether the estimates stayed faithful to the
// ground truth within the noise floor — the §5.1 "the attack gained
// nothing" criterion. base calibrates the floor with the honest run's
// own estimator deviation.
func (out *matrixOutcome) harmlessShift(base *matrixOutcome) bool {
	if out.truth == nil {
		return false
	}
	lossDev := func(o *matrixOutcome) float64 {
		d := (o.estLoss - o.truth.LossRate()) * 100
		if d < 0 {
			d = -d
		}
		return d
	}
	p90Dev := func(o *matrixOutcome) float64 {
		t := p90ms(o.truth.TrueDelaysNS)
		if t <= 0 {
			return 0
		}
		d := o.estP90MS - t
		if d < 0 {
			d = -d
		}
		return d
	}
	lossFloor, p90Floor := noiseLossPct, noiseP90Rel*p90ms(out.truth.TrueDelaysNS)
	if base != nil && base.truth != nil {
		if f := 1.5 * lossDev(base); f > lossFloor {
			lossFloor = f
		}
		if f := 1.5 * p90Dev(base); f > p90Floor {
			p90Floor = f
		}
	}
	return lossDev(out) <= lossFloor && p90Dev(out) <= p90Floor
}

func appendCSV(csv, v string) string {
	if csv == "" {
		return v
	}
	return csv + "," + v
}

func sortCSV(csv string) string {
	if csv == "" {
		return ""
	}
	parts := strings.Split(csv, ",")
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// adversarySink mounts the scenario's control-plane adversaries, if
// any, on sink (PathIDFor depends only on the path geometry, which the
// world mutation never changes, so any Fig1 path serves the rewrite
// closures). The first-listed adversary is wrapped outermost, so it sees
// the honest receipts first and later ones tap its output.
func (sc *matrixScenario) adversarySink(p *netsim.Path, sink core.EpochSink) core.EpochSink {
	if sc.domainAdvs == nil {
		return sink
	}
	chain := sc.domainAdvs(p)
	for i := len(chain) - 1; i >= 0; i-- {
		sink = adversary.NewAdversarySink(sink, chain[i])
	}
	return sink
}

// runBatchScenario mounts the scenario on a one-shot run — a stream of
// one epoch: simulate with worn observers, seal the whole trace as
// epoch 0 through the control-plane adversaries onto (possibly
// tampered) bundle servers, collect as verifier "A", and judge epoch
// 0's report.
func runBatchScenario(cfg Config, sc *matrixScenario) (*matrixOutcome, error) {
	dc := matrixDeploy()
	mu := hashing.ThresholdForRate(dc.MarkerRate)
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
	mutateMatrixPath(cfg, sc, mu)(path)
	dep, err := core.NewDeployment(path, tc.Table(), dc)
	if err != nil {
		return nil, err
	}
	observers := dep.Observers()
	if sc.wear != nil {
		for hop, adv := range sc.wear(mu) {
			if obs, ok := observers[hop]; ok {
				observers[hop] = netsim.Wear(hop, adv, obs)
			}
		}
	}
	truthRes, err := path.Run(pkts, observers)
	if err != nil {
		return nil, err
	}
	dep.Finalize()

	// Seal the trace as epoch 0 through the lying control planes into
	// one signed bundle server per HOP, as the continuous arm does every
	// epoch.
	hops := dep.HOPs()
	signer := func(h receipt.HOPID) *dissem.Signer { return hopSigner(cfg.Seed, h) }
	bt := engine.NewBusTransport(hops, signer)
	if sc.tamper != nil {
		for hop, t := range sc.tamper("batch", signer) {
			bt.Servers[hop].SetTamper(t)
		}
	}
	dep.Seal(sc.adversarySink(path, bt.Sink()))

	// Verifier "A" collects every feed: one bundle per HOP, the sealed
	// epoch 0, or a signature finding in its place.
	layout := dep.Layout()
	out := newMatrixOutcome()
	received := make(map[receipt.HOPID][]*dissem.Bundle, len(hops))
	for _, id := range hops {
		_, err := bt.Bus.CollectSinceAs("A", bt.Registry, id, 0, func(b *dissem.Bundle) error {
			received[id] = append(received[id], b)
			return nil
		})
		var be *dissem.BundleError
		if errors.As(err, &be) {
			out.blames = append(out.blames, core.BlameHOP(layout, 0, core.EvSignature, id, 1, err.Error()))
		} else if err != nil {
			return nil, err
		}
	}
	// A HOP that published nothing is a withholder: its interval can
	// never be judged and the absence itself is the evidence. Links
	// touching an absent HOP are excluded from the receipt checks —
	// with one end's receipts missing entirely, a link verdict would
	// smear the withholder's blame onto its honest neighbor, while the
	// absence already names the narrowest set.
	absent := make(map[receipt.HOPID]bool)
	for _, id := range hops {
		if len(received[id]) == 0 {
			absent[id] = true
			out.blames = append(out.blames, core.BlameHOP(layout, 0, core.EvWithheldBundle, id, 1,
				fmt.Sprintf("no bundle from %v", id)))
		}
	}

	// Cross-verifier equivocation check: a second verifier "B" fetches
	// independently and the two compare raw signed bundles per origin.
	for _, id := range hops {
		eqs := dissem.FindEquivocation(bt.Registry, id, bt.Servers[id].SignedBundles("A"), bt.Servers[id].SignedBundles("B"))
		if len(eqs) > 0 {
			out.blames = append(out.blames, core.BlameHOP(layout, 0, core.EvEquivocation, id, len(eqs), eqs[0].String()))
		}
	}

	// Verification: epoch 0 over what "A" received, every HOP sealing
	// what it delivered (an absent HOP, nothing).
	vc := dep.VerifierConfig()
	vc.BiasChecks = true
	rep, err := dep.VerifyOnce(vc, cfg.Confidence, func(sink core.EpochSink) {
		for _, id := range hops {
			var samples []receipt.SampleReceipt
			var aggs []receipt.AggReceipt
			for _, b := range received[id] {
				samples = append(samples, b.Samples...)
				aggs = append(aggs, b.Aggs...)
			}
			sink(id, 0, samples, aggs)
		}
	})
	if err != nil {
		return nil, err
	}
	for i := range rep.Keys {
		kr := &rep.Keys[i]
		kr.Links = slices.DeleteFunc(kr.Links, func(lv core.LinkVerdict) bool { return absent[lv.Up] || absent[lv.Down] })
		kr.Blames = slices.DeleteFunc(kr.Blames, func(b core.Blame) bool {
			return slices.ContainsFunc(b.HOPs, func(h receipt.HOPID) bool { return absent[h] })
		})
	}
	out.fold([]core.EpochReport{rep})
	truth, _ := truthRes.DomainByName("X")
	out.truth = truth
	return out, nil
}

// runContinuousScenario mounts the scenario on the rotating epoch
// pipeline via RunContinuousOpts and judges the union of per-epoch
// findings.
func runContinuousScenario(cfg Config, sc *matrixScenario) (*matrixOutcome, error) {
	dc := matrixDeploy()
	mu := hashing.ThresholdForRate(dc.MarkerRate)
	intervalNS := cfg.DurationNS / matrixEpochs
	if intervalNS < 1 {
		intervalNS = cfg.DurationNS
	}
	ec := core.EpochConfig{IntervalNS: intervalNS, Retention: 2}
	seqCfg := matrixSeqConfig()
	opts := ContinuousOptions{
		MutatePath: mutateMatrixPath(cfg, sc, mu),
		Deploy:     &dc,
		WrapSink: func(sink core.EpochSink) core.EpochSink {
			return sc.adversarySink(netsim.Fig1Path(cfg.Seed+1000), sink)
		},
		BiasChecks: true,
		Sequential: &seqCfg,
	}
	if sc.wear != nil {
		opts.Wear = sc.wear(mu)
	}
	if sc.tamper != nil {
		// The same hopSigner derivation RunContinuousOpts uses, so a
		// re-signing tamper (an Equivocator) holds the origin's real key
		// in continuous mode too.
		opts.Tamper = sc.tamper("continuous", func(h receipt.HOPID) *dissem.Signer {
			return hopSigner(cfg.Seed, h)
		})
	}
	res, err := RunContinuousOpts(cfg, ec, matrixEpochs, opts)
	if err != nil {
		return nil, err
	}

	out := newMatrixOutcome()
	out.blames = append(out.blames, res.DissemFindings...)
	out.fold(res.Reports)
	for i := range res.Truth {
		if res.Truth[i].Name == "X" {
			out.truth = &res.Truth[i]
		}
	}
	return out, nil
}

// newMatrixOutcome returns an empty outcome.
func newMatrixOutcome() *matrixOutcome {
	return &matrixOutcome{linkVerdicts: make(map[uint64][]core.LinkVerdict), domainLoss: make(map[string]float64)}
}

// fold adds the verified epochs' reports to an outcome holding the
// dissemination findings, and settles what the judge reads: loss
// summed over the epochs, domain X's p90 weighted by each epoch's
// samples — one epoch's taken as is, since x·n/n need not be x in
// floating point — the mean matched samples per link and epoch (the
// evidence budget n one sequential detector sees), and the batch
// epochs-to-verdict, judged before the sequential verdicts are folded
// in so the column measures the per-epoch checks alone (the folded
// blames then give the judge's localization contract authority over the
// early verdicts too).
func (out *matrixOutcome) fold(reports []core.EpochReport) {
	var lossIn, lossLost int64
	domIn := make(map[string]int64)
	domLost := make(map[string]int64)
	var p90Weighted, p90Last float64
	var p90Samples, p90Epochs, matched, cells int
	for _, rep := range reports {
		out.seq = append(out.seq, rep.Seq...)
		for _, k := range rep.Keys {
			out.linkVerdicts[uint64(rep.Epoch)] = append(out.linkVerdicts[uint64(rep.Epoch)], k.Links...)
			out.blames = append(out.blames, k.Blames...)
			for _, lv := range k.Links {
				matched += lv.MatchedSamples
				cells++
			}
			for _, dom := range k.Domains {
				domIn[dom.Name] += dom.Loss.In
				domLost[dom.Name] += dom.Loss.Lost
				if dom.Name == "X" {
					lossIn += dom.Loss.In
					lossLost += dom.Loss.Lost
					if len(dom.DelayEstimates) > 1 && dom.DelaySamples > 0 {
						p90Last = dom.DelayEstimates[1].Point
						p90Weighted += p90Last * float64(dom.DelaySamples)
						p90Samples += dom.DelaySamples
						p90Epochs++
					}
				}
			}
		}
	}
	if lossIn > 0 {
		out.estLoss = float64(lossLost) / float64(lossIn)
	}
	for name, in := range domIn {
		if in > 0 {
			out.domainLoss[name] = float64(domLost[name]) / float64(in)
		}
	}
	switch {
	case p90Epochs == 1:
		out.estP90MS = p90Last / 1e6
	case p90Epochs > 1:
		out.estP90MS = p90Weighted / float64(p90Samples) / 1e6
	}
	if cells > 0 {
		out.perEpochN = float64(matched) / float64(cells)
	}
	for _, b := range out.blames {
		if e := float64(b.Epoch) + 1; out.batchEpochs == 0 || e < out.batchEpochs {
			out.batchEpochs = e
		}
	}
	for _, v := range out.seq {
		out.blames = append(out.blames, seqBlame(v))
	}
}
