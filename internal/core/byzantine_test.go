package core

import (
	"errors"
	"sync"
	"testing"

	"vpm/internal/dissem"
	"vpm/internal/receipt"
)

// recordingAdversary logs every Corrupt call.
type recordingAdversary struct {
	taps []receipt.HOPID

	mu     sync.Mutex
	epochs []EpochID
	seen   []map[receipt.HOPID]int // sample-receipt counts per call
}

func (r *recordingAdversary) Name() string          { return "recorder" }
func (r *recordingAdversary) Taps() []receipt.HOPID { return r.taps }
func (r *recordingAdversary) Corrupt(epoch EpochID, sealed map[receipt.HOPID]*SealedEpoch) {
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
		epoch EpochID
	}
	var forwarded []sealEvent
	sink := NewAdversarySink(func(hop receipt.HOPID, epoch EpochID, samples []receipt.SampleReceipt, _ []receipt.AggReceipt) {
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

// fig1Layout builds the standard 5-domain layout without a deployment.
func fig1Layout() Layout {
	return Layout{
		HOPs: []receipt.HOPID{1, 2, 3, 4, 5, 6, 7, 8},
		Segments: []Segment{
			{Kind: LinkSegment, Up: 1, Down: 2, Name: "S-L", UpDomain: "S", DownDomain: "L"},
			{Kind: DomainSegment, Up: 2, Down: 3, Name: "L", UpDomain: "L", DownDomain: "L"},
			{Kind: LinkSegment, Up: 3, Down: 4, Name: "L-X", UpDomain: "L", DownDomain: "X"},
			{Kind: DomainSegment, Up: 4, Down: 5, Name: "X", UpDomain: "X", DownDomain: "X"},
			{Kind: LinkSegment, Up: 5, Down: 6, Name: "X-N", UpDomain: "X", DownDomain: "N"},
			{Kind: DomainSegment, Up: 6, Down: 7, Name: "N", UpDomain: "N", DownDomain: "N"},
			{Kind: LinkSegment, Up: 7, Down: 8, Name: "N-D", UpDomain: "N", DownDomain: "D"},
		},
	}
}

// TestAttributeBlame groups violations by evidence class, names the
// link's two HOPs and adjacent domains, and stamps the epoch.
func TestAttributeBlame(t *testing.T) {
	layout := fig1Layout()
	verdicts := []LinkVerdict{
		{LinkID: 1, Up: 3, Down: 4}, // consistent: no blame
		{LinkID: 2, Up: 5, Down: 6, Violations: []receipt.Inconsistency{
			{Kind: receipt.MissingDownstream, PktID: 1},
			{Kind: receipt.CountMismatch},
			{Kind: receipt.MissingDownstream, PktID: 2},
		}},
	}
	blames := AttributeBlame(layout, 7, verdicts)
	if len(blames) != 2 {
		t.Fatalf("got %d blames, want 2: %v", len(blames), blames)
	}
	missing := blames[0]
	if missing.Evidence != EvMissingReceipt || missing.Count != 2 {
		t.Fatalf("first blame: %+v", missing)
	}
	if missing.Epoch != 7 || missing.LinkID != 2 {
		t.Fatalf("epoch/link attribution wrong: %+v", missing)
	}
	if len(missing.HOPs) != 2 || missing.HOPs[0] != 5 || missing.HOPs[1] != 6 {
		t.Fatalf("HOP set: %v", missing.HOPs)
	}
	if len(missing.Domains) != 2 || missing.Domains[0] != "X" || missing.Domains[1] != "N" {
		t.Fatalf("domain set: %v", missing.Domains)
	}
	if blames[1].Evidence != EvInconsistentAggregate || blames[1].Count != 1 {
		t.Fatalf("second blame: %+v", blames[1])
	}
}

func TestBlameHOPNamesDomain(t *testing.T) {
	layout := fig1Layout()
	b := BlameHOP(layout, 3, EvWithheldBundle, 5, 1, "no bundle")
	if len(b.HOPs) != 1 || b.HOPs[0] != 5 || b.LinkID != -1 {
		t.Fatalf("blame: %+v", b)
	}
	if len(b.Domains) != 1 || b.Domains[0] != "X" {
		t.Fatalf("HOP 5 should map to domain X: %v", b.Domains)
	}
	if s := BlameHOP(layout, 0, EvSignature, 1, 1, ""); len(s.Domains) != 1 || s.Domains[0] != "S" {
		t.Fatalf("stub HOP 1 should map to S: %v", s.Domains)
	}
}

// TestWindowStaleSealRejected: a second bundle for a sealed (HOP,
// epoch) is refused with a typed StaleSealError — the detection point
// for replayed epochs — and sealing metadata is exposed through
// MissingSeals / UnverifiedEpochs.
func TestWindowStaleSealRejected(t *testing.T) {
	hops := []receipt.HOPID{1, 2}
	win, err := NewWindowedStore(hops, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := &dissem.Bundle{Origin: 1, Epoch: 0}
	if err := win.IngestBundle(b); err != nil {
		t.Fatal(err)
	}
	if err := win.SealHOP(1, 0); err != nil {
		t.Fatal(err)
	}
	err = win.IngestBundle(b)
	var stale *StaleSealError
	if !errors.As(err, &stale) {
		t.Fatalf("replayed bundle accepted: %v", err)
	}
	if stale.HOP != 1 || stale.Epoch != 0 {
		t.Fatalf("stale error misattributed: %+v", stale)
	}
	// HOP 2 never sealed epoch 0: it is the missing seal.
	if ms := win.MissingSeals(0); len(ms) != 1 || ms[0] != 2 {
		t.Fatalf("MissingSeals: %v, want [2]", ms)
	}
	if un := win.UnverifiedEpochs(); len(un) != 1 || un[0] != 0 {
		t.Fatalf("UnverifiedEpochs: %v, want [0]", un)
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
	fab := &Fabricator{Ingress: 4, Egress: 5, RewritePath: pathOf, ClaimedDelayNS: 100, From: 2, To: 4}
	mk := func() map[receipt.HOPID]*SealedEpoch {
		return map[receipt.HOPID]*SealedEpoch{
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
