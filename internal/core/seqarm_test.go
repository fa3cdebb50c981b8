package core

import (
	"bytes"
	"slices"
	"testing"

	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/receipt"
	"vpm/internal/seqdetect"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// runSeqRolling replays one deterministic lossy-or-healthy Fig1
// deployment and rolls it up with the given sequential config and
// worker count, returning the per-epoch reports in epoch order.
func runSeqRolling(t *testing.T, lossyLink bool, seq *seqdetect.Config) ([]EpochReport, Layout) {
	t.Helper()
	tc := equivTraceConfig(1, 20_000, int64(2e8))
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	const intervalNS = int64(5e7)

	path := netsim.Fig1Path(77)
	if lossyLink {
		// Heavy loss on the L→X link, as in
		// TestRollingVerifierFlagsFaultyLink.
		ge, err := lossmodel.FromTargetLoss(0.3, 4, stats.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		path.Links[1].Loss = ge
	}
	dc := DefaultDeployConfig()
	dc.Default.SampleRate = 0.05
	dep, err := NewDeployment(path, tc.Table(), dc)
	if err != nil {
		t.Fatal(err)
	}
	var hops []receipt.HOPID
	for id := range dep.Collectors {
		hops = append(hops, id)
	}
	win, err := NewWindowedStore(hops, 2)
	if err != nil {
		t.Fatal(err)
	}
	driver, err := NewEpochDriver(dep, intervalNS, win.Sink())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := path.Run(pkts, driver.Observers()); err != nil {
		t.Fatal(err)
	}
	driver.Close()
	win.FinishStream()

	cfg := dep.VerifierConfig()
	cfg.Sequential = seq
	rolling := NewRollingVerifier(dep.Layout(), cfg, win, nil, 0)
	reps, err := rolling.VerifyReady()
	if err != nil {
		t.Fatal(err)
	}
	return reps, dep.Layout()
}

// TestSequentialArmDetectsLossyLinkEarly: with the SPRT arm on, a
// lossy link must produce a sequential loss verdict on the right link
// no later than the batch arm's first flagged epoch + 1 — and the
// batch verdict fields must be unaffected by arming: stripping Seq
// from the armed reports yields encodings byte-identical to an
// unarmed run's.
func TestSequentialArmDetectsLossyLinkEarly(t *testing.T) {
	unarmed, _ := runSeqRolling(t, true, nil)
	armed, layout := runSeqRolling(t, true, &seqdetect.Config{})
	if len(armed) != len(unarmed) {
		t.Fatalf("armed run has %d reports, unarmed %d", len(armed), len(unarmed))
	}

	// Arming must not perturb the batch verdicts, and an unarmed
	// report's canonical bytes must not mention the Seq field at all
	// (the wire format predating the arm).
	for i := range unarmed {
		ub, err := EncodeEpochReport(unarmed[i])
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(ub, []byte(`"Seq"`)) {
			t.Fatalf("epoch %d: unarmed report encodes a Seq field", unarmed[i].Epoch)
		}
		stripped := armed[i]
		stripped.Seq = nil
		ab, err := EncodeEpochReport(stripped)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ub, ab) {
			t.Fatalf("epoch %d: batch verdict bytes changed when the sequential arm is on", unarmed[i].Epoch)
		}
	}

	firstBatch := -1
	for _, rep := range unarmed {
		for _, k := range rep.Keys {
			for _, lv := range k.Links {
				if lv.LinkID == 1 && !lv.Consistent() && firstBatch < 0 {
					firstBatch = int(rep.Epoch)
				}
			}
		}
	}
	if firstBatch < 0 {
		t.Fatal("batch arm never flagged the lossy link — workload proves nothing")
	}

	link := layout.Links()[1]
	found := false
	for _, rep := range armed {
		for _, v := range rep.Seq {
			if v.Class != seqdetect.ClassLoss {
				continue
			}
			if v.Up != uint32(link.Up) || v.Down != uint32(link.Down) {
				t.Fatalf("sequential loss verdict on link %d->%d, want %v->%v",
					v.Up, v.Down, link.Up, link.Down)
			}
			found = true
			if v.Frac <= 0 || v.Frac > 1 {
				t.Fatalf("crossing fraction %v outside (0,1]", v.Frac)
			}
			if got, bound := v.EpochsToVerdict(), float64(firstBatch)+1; got > bound {
				t.Fatalf("sequential detection at %.3f epochs, batch flagged by %.1f", got, bound)
			}
		}
	}
	if !found {
		t.Fatal("sequential arm emitted no loss verdict for the lossy link")
	}
}

// TestSequentialArmHonestRunQuiet: a healthy deployment with the arm
// on yields zero sequential verdicts and zero batch violations.
func TestSequentialArmHonestRunQuiet(t *testing.T) {
	reps, _ := runSeqRolling(t, false, &seqdetect.Config{})
	for _, rep := range reps {
		if len(rep.Seq) != 0 {
			t.Fatalf("epoch %d: honest run emitted sequential verdicts: %+v", rep.Epoch, rep.Seq)
		}
		if rep.Violations() != 0 {
			t.Fatalf("epoch %d: honest run has batch violations", rep.Epoch)
		}
	}
}

// TestSharedDomainSharesBiasSlot: two routes of a key that cross the
// same domain segment — the same HOPs and name, so one detector scope —
// feed one bias detector through one slot, while a domain segment they
// share only one HOP of gets a slot per route.
func TestSharedDomainSharesBiasSlot(t *testing.T) {
	link := func(up, down receipt.HOPID) Segment { return Segment{Kind: LinkSegment, Up: up, Down: down} }
	domain := func(up, down receipt.HOPID, name string) Segment {
		return Segment{Kind: DomainSegment, Up: up, Down: down, Name: name}
	}
	p := planRoutes([]Layout{
		{Segments: []Segment{domain(1, 2, "S"), link(2, 3), domain(3, 4, "A"), link(4, 5)}},
		{Segments: []Segment{domain(1, 2, "S"), link(2, 3), domain(3, 6, "A"), link(6, 7)}},
	})
	var ks keySeq
	n := ks.layOut(p, new([]int32))
	// Route 0: slots 0–2 and 3–5 for its two links, 6 and 7 for S and A;
	// route 1: 8–10 for its own link (2→3 is route 0's), S shares slot 6,
	// its own slot 11 stays empty, and A (3→6) takes slot 12.
	if n != 13 || !slices.Equal(ks.bias, []int32{6, 7, 6, 12}) {
		t.Fatalf("%d slots, bias slots %v; want 13 and [6 7 6 12]", n, ks.bias)
	}
}
