package experiments

import (
	"sync"
	"testing"

	"vpm/internal/core"
	"vpm/internal/netsim"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
)

// matrixTestConfig is the reduced-scale matrix world: large enough for
// per-epoch marker populations (the bias check needs ≥10 matched
// markers per epoch), small enough to keep the suite fast.
func matrixTestConfig() Config {
	return Config{Seed: 1, RatePPS: 50_000, DurationNS: 300_000_000}
}

// testMatrix computes the (deterministic) matrix once and shares it
// across the tests that assert on it — the 22 scenario simulations are
// the most expensive thing in the suite.
var testMatrix = sync.OnceValues(func() ([]MatrixRow, error) {
	return AttackMatrix(matrixTestConfig())
})

// TestAttackMatrix is the acceptance gate of the Byzantine framework:
// every adversary in the matrix, in batch AND continuous mode, is
// either detected with correct blame (narrowest HOP set, allowed
// evidence class), contained (collusion), or provably harmless —
// and honest links carry zero violations in every scenario.
func TestAttackMatrix(t *testing.T) {
	rows, err := testMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 20 {
		t.Fatalf("matrix produced only %d rows", len(rows))
	}
	modes := map[string]map[string]bool{}
	for _, r := range rows {
		t.Logf("%-18s %-11s -> %-10s localized=%v evidence=%q blamed=%v epochs=%v",
			r.Adversary, r.Mode, r.Verdict, r.Localized, r.Evidence, r.BlamedHOPs, r.FlaggedEpochs)
		if r.Verdict == "undetected" {
			t.Errorf("%s/%s: adversary escaped: neither detected, contained, nor harmless", r.Adversary, r.Mode)
		}
		if !r.Localized {
			t.Errorf("%s/%s: blame not localized to the expected set (blamed %v)", r.Adversary, r.Mode, r.BlamedHOPs)
		}
		if r.HonestLinkViolations != 0 {
			t.Errorf("%s/%s: %d violations leaked onto honest links", r.Adversary, r.Mode, r.HonestLinkViolations)
		}
		if modes[r.Adversary] == nil {
			modes[r.Adversary] = map[string]bool{}
		}
		modes[r.Adversary][r.Mode] = true
	}
	// Every scenario must run in both modes unless it explicitly
	// restricted itself.
	for _, sc := range matrixScenarios(matrixTestConfig()) {
		for _, mode := range []string{"batch", "continuous"} {
			if sc.runsIn(mode) && !modes[sc.name][mode] {
				t.Errorf("scenario %s missing its %s row", sc.name, mode)
			}
		}
	}
	// Honest rows must be faithful: the verifier's estimate tracks the
	// ground truth.
	for _, r := range rows {
		if r.Adversary != "honest" {
			continue
		}
		if d := r.EstLossPct - r.TrueLossPct; d > 1.5 || d < -1.5 {
			t.Errorf("honest/%s: estimated loss %.2f%% vs true %.2f%%", r.Mode, r.EstLossPct, r.TrueLossPct)
		}
	}
}

// TestMatrixEvidenceClasses pins the headline detections to their
// paper-mandated evidence: fabrication surfaces as missing receipts at
// X-N, delay shaving as MaxDiff violations, withholding as a named
// missing seal, equivocation as a signed contradiction.
func TestMatrixEvidenceClasses(t *testing.T) {
	rows, err := testMatrix()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"fabricate/batch":         "missing-receipt",
		"delay-underreport/batch": "delay-bound",
		"withhold/continuous":     "withheld-bundle",
		"stale-replay/continuous": "epoch-replay",
		"equivocate/batch":        "equivocation",
		"prefer-markers/batch":    "marker-bias",
	}
	got := map[string]string{}
	for _, r := range rows {
		got[r.Adversary+"/"+r.Mode] = r.Evidence
	}
	for key, ev := range want {
		if !containsCSV(got[key], ev) {
			t.Errorf("%s: evidence %q does not include %q", key, got[key], ev)
		}
	}
}

func containsCSV(csv, want string) bool {
	for csv != "" {
		i := 0
		for i < len(csv) && csv[i] != ',' {
			i++
		}
		if csv[:i] == want {
			return true
		}
		if i == len(csv) {
			break
		}
		csv = csv[i+1:]
	}
	return false
}

// TestEpochStraddleAttribution: an attack active only for a window of
// epochs — including one straddling a rotation boundary — is
// attributed to the epochs it touched (±1 for boundary spill) and to
// the right link, while untouched epochs stay violation-free. This is
// the per-epoch half of the blame-attribution contract.
func TestEpochStraddleAttribution(t *testing.T) {
	cfg := Config{Seed: 5, RatePPS: 50_000}
	const epochs = 6
	const intervalNS = 60_000_000
	const from, to = 2, 4 // fabricate during epochs [2, 4)
	dc := matrixDeploy()
	ec := core.EpochConfig{IntervalNS: intervalNS, Retention: 3}
	opts := ContinuousOptions{
		Deploy: &dc,
		MutatePath: func(p *netsim.Path) {
			// Lossless X: every forged record is a pure fabrication
			// artifact, so all violations stem from the attack window.
		},
		WrapSink: func(sink core.EpochSink) core.EpochSink {
			fab := fabricatorForX(netsim.Fig1Path(cfg.Seed + 1000))
			fab.From, fab.To = from, to
			return core.NewAdversarySink(sink, fab)
		},
	}
	res, err := RunContinuousOpts(cfg, ec, epochs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DissemFindings) != 0 {
		t.Fatalf("unexpected dissemination findings: %v", res.DissemFindings)
	}
	flagged := map[core.EpochID]bool{}
	for _, rep := range res.Reports {
		for _, k := range rep.Keys {
			for _, b := range k.Blames {
				flagged[rep.Epoch] = true
				for _, h := range b.HOPs {
					if h != 5 && h != 6 {
						t.Errorf("epoch %d: blame names %v, outside the X-N link", rep.Epoch, h)
					}
				}
				if b.Epoch != rep.Epoch {
					t.Errorf("blame stamped epoch %d inside report for epoch %d", b.Epoch, rep.Epoch)
				}
			}
		}
	}
	hit := false
	for e := range flagged {
		// Boundary spill may pull attribution one epoch to either side
		// of the active window; anything further is misattribution.
		if e < from-1 || e > to {
			t.Errorf("epoch %d flagged, outside the attack window [%d,%d) ±1", e, from, to)
		}
		if e >= from && e < to {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("no epoch inside the attack window [%d,%d) was flagged: %v", from, to, flagged)
	}
}

// TestContinuousWearMatchesBatchWear: the same data-plane adversary
// worn in batch and continuous mode corrupts the same observation
// stream — receipts stay deterministic under segmentation even when a
// HOP is lying (the Runner's segmentation invariant extends to worn
// observers).
func TestContinuousWearMatchesBatchWear(t *testing.T) {
	cfg := Config{Seed: 9, RatePPS: 30_000, DurationNS: 200_000_000}
	dc := matrixDeploy()
	wear := map[receipt.HOPID]netsim.Adversary{
		hopXEgress: &netsim.DelayShaver{ShaveNS: shaveBlatant},
	}
	ec := core.EpochConfig{IntervalNS: cfg.DurationNS / 4, Retention: 2}
	res1, err := RunContinuousOpts(cfg, ec, 4, ContinuousOptions{Deploy: &dc, Wear: wear})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := RunContinuousOpts(cfg, ec, 4, ContinuousOptions{Deploy: &dc, Wear: map[receipt.HOPID]netsim.Adversary{
		hopXEgress: &netsim.DelayShaver{ShaveNS: shaveBlatant},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res1.SampleReceipts != res2.SampleReceipts || res1.MatchedSamples != res2.MatchedSamples ||
		res1.Violations != res2.Violations {
		t.Fatalf("worn runs diverged: %d/%d/%d vs %d/%d/%d",
			res1.SampleReceipts, res1.MatchedSamples, res1.Violations,
			res2.SampleReceipts, res2.MatchedSamples, res2.Violations)
	}
	if res1.Violations == 0 {
		t.Fatal("worn DelayShaver produced no violations")
	}
}

// TestFoldOneEpochP90IsExact: a one-shot run's p90 is its one epoch's
// estimate bit for bit — weighting an estimate by its own sample count
// need not round-trip in floating point, which would move a batch row.
func TestFoldOneEpochP90IsExact(t *testing.T) {
	p90 := 10_601_400.2
	n := 1
	for p90*float64(n)/float64(n) == p90 {
		if n++; n > 1_000_000 {
			t.Fatal("every weight round-trips; pick another estimate")
		}
	}
	rep := core.EpochReport{Keys: []core.EpochKeyReport{{Domains: []core.DomainReport{{
		Name:           "X",
		DelaySamples:   n,
		DelayEstimates: []quantile.Estimate{{Q: 0.5}, {Q: 0.9, Point: p90}, {Q: 0.99}},
	}}}}}
	out := newMatrixOutcome()
	out.fold([]core.EpochReport{rep})
	if out.estP90MS != p90/1e6 {
		t.Fatalf("one epoch of %d samples folds its p90 to %v ms, want %v", n, out.estP90MS, p90/1e6)
	}
}
