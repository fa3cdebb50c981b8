package core

import (
	"reflect"
	"testing"

	"vpm/internal/hashing"
	"vpm/internal/netsim"
	"vpm/internal/receipt"
	"vpm/internal/sampling"
	"vpm/internal/stats"
)

// inversionLink is the §5.3 worst case on a two-HOP link, run through
// real Algorithm 1 samplers. Both HOPs see two long marker-free runs
// (temporary buffers holding ~100 σ-samples' worth of packets each).
// The first is closed by the same marker at both ends. The second is
// closed upstream by marker M, followed gapNS later by marker N;
// downstream the two markers arrive in the opposite order, so it closes
// that buffer with N, and the two honest ends key every decision in it
// differently.
type inversionLink struct {
	gapNS    int64 // upstream spacing of the two closing markers
	suppress int   // first-buffer records the downstream HOP drops from its receipt
	hideNext bool  // the downstream HOP omits marker N from its receipt
}

const inversionMaxDiffNS = 3_000_000

func (c inversionLink) build(t *testing.T) *Verifier {
	t.Helper()
	cfg := sampling.Config{MarkerRate: 0.004, SampleRate: 0.05}
	mu := hashing.ThresholdForRate(cfg.MarkerRate)
	sigma := hashing.ThresholdForRate(cfg.SampleRate)

	const run, delayNS = 2000, 1_000_000
	var markers, others []uint64
	for rng := stats.NewRNG(172); len(markers) < 4 || len(others) < 2*run; {
		if id := rng.Uint64(); hashing.Exceeds(id, mu) {
			markers = append(markers, id)
		} else {
			others = append(others, id)
		}
	}
	first, m, n, last := markers[0], markers[1], markers[2], markers[3]

	up, down := sampling.New(cfg), sampling.New(cfg)
	tNS := int64(0)
	for i, id := range others[:2*run] {
		if i == run {
			tNS += 1000
			up.Observe(first, tNS)
			down.Observe(first, tNS+delayNS)
		}
		tNS += 1000
		up.Observe(id, tNS)
		down.Observe(id, tNS+delayNS)
	}
	tM, tN := tNS+1000, tNS+1000+c.gapNS
	up.Observe(m, tM)
	up.Observe(n, tN)
	down.Observe(n, tM+delayNS) // the markers trade places in flight
	down.Observe(m, tN+delayNS)
	up.Observe(last, tN+10*inversionMaxDiffNS)
	down.Observe(last, tN+10*inversionMaxDiffNS+delayNS)

	var reported []receipt.SampleRecord
	suppress := c.suppress
	for _, rec := range down.Take() {
		switch {
		case c.hideNext && rec.PktID == n:
		case suppress > 0 && !hashing.Exceeds(rec.PktID, mu):
			suppress--
		default:
			reported = append(reported, rec)
		}
	}

	key := netsim.TopoKeys(1)[0]
	pid := receipt.PathID{Key: key, MaxDiffNS: inversionMaxDiffNS}
	v := NewVerifierFor(Layout{HOPs: []receipt.HOPID{1, 2}}, key)
	v.SetConfig(VerifierConfig{
		MarkerThreshold:  mu,
		SampleThresholds: map[receipt.HOPID]uint64{1: sigma, 2: sigma},
	})
	v.AddSampleReceipt(1, receipt.SampleReceipt{Path: pid, Samples: up.Take()})
	v.AddSampleReceipt(2, receipt.SampleReceipt{Path: pid, Samples: reported})
	return v
}

// TestCheckLinkMarkerInversion pins the derivation that replaced the
// reorder noise budget: two adjacent markers that swap order across a
// link desynchronize a whole temporary buffer between two honest HOPs,
// and the link check must explain every one of those records from the
// receipts — while anything the receipts do not show stays a violation.
func TestCheckLinkMarkerInversion(t *testing.T) {
	const gap = 45_000 // the two markers of seed 1, epoch 172 were 45 µs apart

	v := inversionLink{gapNS: gap}.build(t)
	if up, down := v.SampleCount(1), v.SampleCount(2); up < 50 || down < 50 {
		t.Fatalf("%d and %d samples: the buffer under test is degenerate", up, down)
	}
	lv := v.CheckLink(1, 2)
	if !lv.Consistent() || lv.MissingDown != 0 || lv.MissingUp != 0 {
		t.Fatalf("honest marker inversion blamed: %d missing downstream, %d upstream, %v", lv.MissingDown, lv.MissingUp, lv)
	}
	tol := missingTolerance(lv.MatchedSamples)

	// The same inversion does not cover for suppression.
	lv = inversionLink{gapNS: gap, suppress: 30}.build(t).CheckLink(1, 2)
	if lv.Consistent() || lv.MissingDown != 30 || lv.MissingUp != 0 {
		t.Fatalf("30 suppressed records behind an inversion: %d missing downstream, %d upstream, %v", lv.MissingDown, lv.MissingUp, lv)
	}
	// Markers farther apart than MaxDiff cannot have been reordered by
	// an honest link.
	lv = inversionLink{gapNS: 2 * inversionMaxDiffNS}.build(t).CheckLink(1, 2)
	if lv.MissingDown <= tol || lv.MissingUp <= tol {
		t.Fatalf("inversion across %d ns honoured: %d missing downstream, %d upstream", 2*inversionMaxDiffNS, lv.MissingDown, lv.MissingUp)
	}
	// A deciding marker only one end reported is never honoured.
	lv = inversionLink{gapNS: gap, hideNext: true}.build(t).CheckLink(1, 2)
	if lv.Consistent() || lv.MissingDown <= tol {
		t.Fatalf("unreported deciding marker honoured: %d missing downstream, %v", lv.MissingDown, lv)
	}
}

// TestOneEpochViewIsWholeStream: a one-shot run's epoch 0 judges
// exactly as a hand-fed verifier over the same receipts. Its view is
// the target's leaf alone, so it keeps the head aggregate pair that a
// window spanning neighbouring epochs drops when the two ends' first
// aggregates start at different packets.
func TestOneEpochViewIsWholeStream(t *testing.T) {
	dep, err := NewDeployment(netsim.Fig1Path(1), equivTraceConfig(1, 1000, 1e7).Table(), DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := netsim.TopoKeys(1)[0]
	pid := receipt.PathID{Key: key, MaxDiffNS: inversionMaxDiffNS}
	agg := func(first, last, n uint64) receipt.AggReceipt {
		return receipt.AggReceipt{Path: pid, Agg: receipt.AggID{First: first, Last: last}, PktCnt: n}
	}
	// HOP 2 never saw packet 10, the first HOP 1 counted: before the
	// common cut at 20, 5 packets left upstream and 4 arrived.
	up := []receipt.AggReceipt{agg(10, 19, 5), agg(20, 29, 5)}
	down := []receipt.AggReceipt{agg(11, 19, 4), agg(20, 29, 5)}
	rep, err := dep.VerifyOnce(dep.VerifierConfig(), 0.95, func(sink EpochSink) {
		for _, hop := range dep.HOPs() {
			switch hop {
			case 1:
				sink(hop, 0, nil, up)
			case 2:
				sink(hop, 0, nil, down)
			default:
				sink(hop, 0, nil, nil)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifierFor(dep.Layout(), key)
	v.AddAggReceipts(1, up)
	v.AddAggReceipts(2, down)
	want := v.CheckLink(1, 2)
	if len(want.Violations) != 1 || want.Violations[0].Kind != receipt.CountMismatch {
		t.Fatalf("hand-fed verifier: %+v, want the head pair's count mismatch", want)
	}
	if len(rep.Keys) != 1 || len(rep.Keys[0].Links) == 0 || !reflect.DeepEqual(rep.Keys[0].Links[0], want) {
		t.Fatalf("epoch 0 of a one-epoch stream judged the link differently:\n got %+v\nwant %+v", rep.Keys, want)
	}
}
