package core_test

// The lies of internal/adversary mounted on core: the adversary sink on
// an EpochSink, and the receipt-level forgeries judged by the verifier.
// These are external tests because internal/adversary imports core.

import (
	"sync"
	"testing"

	"vpm/internal/adversary"
	"vpm/internal/core"
	"vpm/internal/receipt"
)

// recordingAdversary logs every Corrupt call.
type recordingAdversary struct {
	taps []receipt.HOPID

	mu     sync.Mutex
	epochs []core.EpochID
	seen   []map[receipt.HOPID]int // sample-receipt counts per call
}

func (r *recordingAdversary) Name() string          { return "recorder" }
func (r *recordingAdversary) Taps() []receipt.HOPID { return r.taps }
func (r *recordingAdversary) Corrupt(epoch core.EpochID, sealed map[receipt.HOPID]*adversary.SealedEpoch) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epochs = append(r.epochs, epoch)
	counts := make(map[receipt.HOPID]int, len(sealed))
	for h, se := range sealed {
		counts[h] = len(se.Samples)
	}
	r.seen = append(r.seen, counts)
}

// TestAdversarySinkBuffersEpochs: the harness holds a tapped HOP's
// sealed interval until every tap sealed that epoch, hands the
// adversary the complete set in ascending epoch order, and passes
// non-tapped HOPs straight through.
func TestAdversarySinkBuffersEpochs(t *testing.T) {
	adv := &recordingAdversary{taps: []receipt.HOPID{4, 5}}
	type sealEvent struct {
		hop   receipt.HOPID
		epoch core.EpochID
	}
	var forwarded []sealEvent
	sink := adversary.NewAdversarySink(func(hop receipt.HOPID, epoch core.EpochID, samples []receipt.SampleReceipt, _ []receipt.AggReceipt) {
		forwarded = append(forwarded, sealEvent{hop, epoch})
	}, adv)

	one := []receipt.SampleReceipt{{}}
	sink(6, 0, one, nil) // not tapped: straight through
	if len(forwarded) != 1 || forwarded[0] != (sealEvent{6, 0}) {
		t.Fatalf("non-tapped HOP not passed through: %v", forwarded)
	}
	sink(4, 0, one, nil) // first tap of epoch 0: held
	if len(forwarded) != 1 || len(adv.epochs) != 0 {
		t.Fatalf("incomplete epoch leaked: fwd=%v corrupt=%v", forwarded, adv.epochs)
	}
	sink(4, 1, one, nil) // tap 4 runs ahead into epoch 1: still held
	sink(5, 0, one, nil) // epoch 0 complete: corrupted + flushed in HOP order
	if len(adv.epochs) != 1 || adv.epochs[0] != 0 {
		t.Fatalf("corrupt calls: %v, want [0]", adv.epochs)
	}
	if len(forwarded) != 3 || forwarded[1] != (sealEvent{4, 0}) || forwarded[2] != (sealEvent{5, 0}) {
		t.Fatalf("epoch 0 flush order wrong: %v", forwarded)
	}
	sink(5, 1, one, nil) // epoch 1 completes second: ascending order held
	if len(adv.epochs) != 2 || adv.epochs[1] != 1 {
		t.Fatalf("corrupt calls: %v, want [0 1]", adv.epochs)
	}
	if got := adv.seen[0]; got[4] != 1 || got[5] != 1 {
		t.Fatalf("adversary saw %v for epoch 0", got)
	}
}

// TestFabricatorEpochWindow: outside its [From, To) activation window
// the fabricator leaves intervals untouched; inside it the egress is
// forged from the ingress.
func TestFabricatorEpochWindow(t *testing.T) {
	pathOf := func(in receipt.PathID) receipt.PathID {
		in.PrevHOP, in.NextHOP = 5, 6
		return in
	}
	fab := &adversary.Fabricator{Ingress: 4, Egress: 5, RewritePath: pathOf, ClaimedDelayNS: 100, From: 2, To: 4}
	mk := func() map[receipt.HOPID]*adversary.SealedEpoch {
		return map[receipt.HOPID]*adversary.SealedEpoch{
			4: {HOP: 4, Samples: []receipt.SampleReceipt{{Samples: []receipt.SampleRecord{{PktID: 1, TimeNS: 10}, {PktID: 2, TimeNS: 20}}}}},
			5: {HOP: 5, Samples: []receipt.SampleReceipt{{Samples: []receipt.SampleRecord{{PktID: 1, TimeNS: 15}}}}},
		}
	}
	idle := mk()
	fab.Corrupt(1, idle)
	if n := len(idle[5].Samples[0].Samples); n != 1 {
		t.Fatalf("fabricator active outside its window: egress has %d records", n)
	}
	active := mk()
	fab.Corrupt(2, active)
	recs := active[5].Samples[0].Samples
	if len(recs) != 2 || recs[0].TimeNS != 110 || recs[1].TimeNS != 120 {
		t.Fatalf("forged egress wrong: %+v", recs)
	}
}

func TestBlameShiftExposedAtDownstreamLink(t *testing.T) {
	// X drops 20% and fabricates egress receipts claiming delivery.
	sc := core.BuildScenario(t, 0.20, false)
	v := core.NewVerifier(sc.Dep.Layout())
	v.SetConfig(sc.Dep.VerifierConfig())
	// Ingest honest receipts everywhere, but replace X's egress (HOP
	// 5) with fabrications derived from its ingress (HOP 4).
	var xIngressSamples receipt.SampleReceipt
	var xIngressAggs []receipt.AggReceipt
	for hop, proc := range sc.Dep.Processors {
		combined := proc.CombinedSamples()
		if hop == 5 {
			continue
		}
		for _, s := range combined {
			if s.Path.Key == sc.Key {
				v.AddSampleReceipt(hop, s)
				if hop == 4 {
					xIngressSamples = s
				}
			}
		}
		var aggs []receipt.AggReceipt
		for _, a := range proc.Aggs {
			if a.Path.Key == sc.Key {
				aggs = append(aggs, a)
			}
		}
		v.AddAggReceipts(hop, aggs)
		if hop == 4 {
			xIngressAggs = aggs
		}
	}
	egressPath := sc.Path.PathIDFor(receipt.PathID{Key: sc.Key}, sc.Path.DomainIndex("X"), false)
	fs, fa := adversary.FabricateDelivery(xIngressSamples, xIngressAggs, egressPath, 500_000)
	v.AddSampleReceipt(5, fs)
	v.AddAggReceipts(5, fa)

	// X's own performance now looks perfect...
	rep, err := v.LossBetween(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 0 {
		t.Fatalf("fabricated receipts should show zero loss, got %d", rep.Lost)
	}
	// ...but the X-N link (HOPs 5-6) is inconsistent: X is exposed to
	// N, exactly the §3.1 strawman argument.
	lv := v.CheckLink(5, 6)
	if lv.Consistent() {
		t.Fatal("blame-shift lie went undetected")
	}
	var missing, countMismatch int
	for _, viol := range lv.Violations {
		switch viol.Kind {
		case receipt.MissingDownstream:
			missing++
		case receipt.CountMismatch:
			countMismatch++
		}
	}
	if missing == 0 {
		t.Error("no missing-downstream violations for fabricated deliveries")
	}
	if countMismatch == 0 {
		t.Error("no aggregate count mismatches for fabricated counts")
	}
	// All other links stay consistent.
	for _, seg := range sc.Dep.Layout().Segments {
		if seg.Kind != core.LinkSegment || (seg.Up == 5 && seg.Down == 6) {
			continue
		}
		if verdict := v.CheckLink(seg.Up, seg.Down); !verdict.Consistent() {
			t.Errorf("innocent link %v-%v flagged: %v", seg.Up, seg.Down, verdict.Violations[0])
		}
	}
}

func TestCoverUpShiftsBlameToColluder(t *testing.T) {
	// X lies; N covers. The X-N link becomes consistent, but the loss
	// X caused now appears INSIDE N (between HOPs 6 and 7): the
	// colluder takes the blame (§3.1).
	sc := core.BuildScenario(t, 0.20, false)
	v := core.NewVerifier(sc.Dep.Layout())
	v.SetConfig(sc.Dep.VerifierConfig())
	var xIngressSamples receipt.SampleReceipt
	var xIngressAggs []receipt.AggReceipt
	for hop, proc := range sc.Dep.Processors {
		if hop == 5 || hop == 6 {
			continue
		}
		for _, s := range proc.CombinedSamples() {
			if s.Path.Key == sc.Key {
				v.AddSampleReceipt(hop, s)
				if hop == 4 {
					xIngressSamples = s
				}
			}
		}
		var aggs []receipt.AggReceipt
		for _, a := range proc.Aggs {
			if a.Path.Key == sc.Key {
				aggs = append(aggs, a)
			}
		}
		v.AddAggReceipts(hop, aggs)
		if hop == 4 {
			xIngressAggs = aggs
		}
	}
	xi := sc.Path.DomainIndex("X")
	ni := sc.Path.DomainIndex("N")
	egressPath := sc.Path.PathIDFor(receipt.PathID{Key: sc.Key}, xi, false)
	nIngressPath := sc.Path.PathIDFor(receipt.PathID{Key: sc.Key}, ni, true)
	fs, fa := adversary.FabricateDelivery(xIngressSamples, xIngressAggs, egressPath, 500_000)
	v.AddSampleReceipt(5, fs)
	v.AddAggReceipts(5, fa)
	cover := adversary.CoverUpReceipt(fs, nIngressPath, 1_000_000)
	v.AddSampleReceipt(6, cover)
	v.AddAggReceipts(6, adversary.CoverUpAggs(fa, nIngressPath, 1_000_000))

	// The covered link looks consistent.
	if lv := v.CheckLink(5, 6); !lv.Consistent() {
		t.Fatalf("cover-up should make the X-N link consistent, got %v", lv.Violations[0])
	}
	// But N now owns X's loss.
	nLoss, err := v.LossBetween(6, 7)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := sc.Truth.DomainByName("X")
	if nLoss.Lost < int64(truth.DroppedInside)*9/10 {
		t.Fatalf("colluder N shows %d lost; it should have absorbed ~%d", nLoss.Lost, truth.DroppedInside)
	}
}

func TestShavedDelaysBreakMaxDiff(t *testing.T) {
	sc := core.BuildScenario(t, 0, true)
	v := sc.Dep.NewVerifier(sc.Key)
	// Rebuild HOP 5's receipt with shaved delays.
	var in5, eg5 receipt.SampleReceipt
	for _, s := range sc.Dep.Processors[4].CombinedSamples() {
		if s.Path.Key == sc.Key {
			in5 = s
		}
	}
	for _, s := range sc.Dep.Processors[5].CombinedSamples() {
		if s.Path.Key == sc.Key {
			eg5 = s
		}
	}
	shaved := adversary.ShaveDelays(in5, eg5, 0.05)
	v2 := core.NewVerifier(sc.Dep.Layout())
	v2.SetConfig(sc.Dep.VerifierConfig())
	for hop, proc := range sc.Dep.Processors {
		if hop == 5 {
			continue
		}
		for _, s := range proc.CombinedSamples() {
			if s.Path.Key == sc.Key {
				v2.AddSampleReceipt(hop, s)
			}
		}
	}
	v2.AddSampleReceipt(5, shaved)
	lv := v2.CheckLink(5, 6)
	found := false
	for _, viol := range lv.Violations {
		if viol.Kind == receipt.DelayBound {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("shaved delays did not violate the MaxDiff bound")
	}
	// Honest receipts would not have.
	if hon := v.CheckLink(5, 6); !hon.Consistent() {
		t.Fatalf("honest congested link inconsistent: %v", hon.Violations[0])
	}
}
