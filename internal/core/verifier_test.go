package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"vpm/internal/dissem"
	"vpm/internal/hashing"
	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// buildMultiPathScenario runs the verify-pipeline acceptance scenario:
// a 16-HOP path (9 domains) carrying 64 origin-prefix paths, densely
// sampled. With lossyLink, one mid-path inter-domain link drops ~30%
// of traffic, so link checks surface real violations (missing
// downstream records, aggregate count mismatches).
func buildMultiPathScenario(t testing.TB, lossyLink bool) (*Deployment, []packet.PathKey) {
	t.Helper()
	const nPaths = 64
	paths := make([]trace.PathSpec, nPaths)
	keys := make([]packet.PathKey, nPaths)
	for i := range paths {
		p := trace.DefaultPath(100000.0 / nPaths)
		p.SrcPrefix = packet.MakePrefix(10, byte(i), 0, 0, 16)
		p.DstPrefix = packet.MakePrefix(192, byte(i), 0, 0, 16)
		paths[i] = p
		keys[i] = packet.PathKey{Src: p.SrcPrefix, Dst: p.DstPrefix}
	}
	tc := trace.Config{Seed: 21, DurationNS: int64(150e6), Paths: paths}
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	path := netsim.LinearPath(23, 9)
	if n := path.NumHOPs(); n != 16 {
		t.Fatalf("scenario has %d HOPs, want 16", n)
	}
	if lossyLink {
		ge, err := lossmodel.FromTargetLoss(0.30, 4, stats.NewRNG(29))
		if err != nil {
			t.Fatal(err)
		}
		path.Links[3].Loss = ge
	}
	dc := DefaultDeployConfig()
	dc.Default.SampleRate = 0.3
	dc.Default.AggRate = 0.001
	dep, err := NewDeployment(path, tc.Table(), dc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := path.Run(pkts, dep.Observers()); err != nil {
		t.Fatal(err)
	}
	dep.Finalize()
	return dep, keys
}

// TestVerifyAllLinksDetectsFaultyLink pins the faulty link down to the
// right LinkID on the 16-HOP, 64-path scenario, with the verdicts in
// path order and identical whether they come from the one-epoch report
// over every key (Deployment.VerifyOnce) or a per-key verifier.
func TestVerifyAllLinksDetectsFaultyLink(t *testing.T) {
	dep, keys := buildMultiPathScenario(t, true)
	rep, _ := onceBytes(t, dep, dep.Seal)
	if len(rep.Keys) != len(keys) {
		t.Fatalf("report covers %d traffic keys, want %d", len(rep.Keys), len(keys))
	}
	// Link 3 connects domain 3's egress (HOP 7) to domain 4's ingress
	// (HOP 8).
	badUp, badDown := receipt.HOPID(7), receipt.HOPID(8)
	flagged := 0
	for _, kr := range rep.Keys {
		key, verdicts := kr.Key, kr.Links
		if rebuilt := dep.NewVerifier(key).VerifyAllLinks(); !reflect.DeepEqual(verdicts, rebuilt) {
			t.Fatalf("key %v: per-key verifier's verdicts differ from the report's:\nreport:   %+v\nverifier: %+v", key, verdicts, rebuilt)
		}
		for i, lv := range verdicts {
			if lv.LinkID != i {
				t.Fatalf("key %v: verdict %d has LinkID %d; want path order", key, i, lv.LinkID)
			}
			if lv.Consistent() {
				continue
			}
			if lv.Up != badUp || lv.Down != badDown {
				t.Fatalf("key %v: violations on healthy link %v-%v: %v", key, lv.Up, lv.Down, lv.Violations[0])
			}
			flagged++
		}
	}
	if flagged < len(keys)/2 {
		t.Fatalf("faulty link flagged on only %d/%d keys", flagged, len(keys))
	}
}

// TestStoreKeyedIsolation checks that a keyed verifier never reads
// another path's receipts: fed every key's, it keeps its own key's
// alone and answers as the deployment's verifier for that key.
func TestStoreKeyedIsolation(t *testing.T) {
	dep, keys := buildMultiPathScenario(t, false)
	fed := NewVerifierFor(dep.Layout(), keys[0])
	dep.Seal(fed.Sink())
	if got := len(fed.leaf); got != 1 {
		t.Fatalf("keyed verifier holds %d traffic keys, want 1", got)
	}
	private := dep.NewVerifier(keys[0])
	seen := 0
	for _, hop := range dep.Layout().HOPs {
		s, p := fed.SampleCount(hop), private.SampleCount(hop)
		if s != p {
			t.Fatalf("HOP %v: multi-key feed sees %d samples, private rebuild %d", hop, s, p)
		}
		seen += s
	}
	if seen == 0 {
		t.Fatal("no samples anywhere — the comparison proved nothing")
	}
}

// TestStreamingIngestMatchesBatch feeds the deployment's receipts
// through the signed-bundle streaming path — one bundle server per HOP
// on a bus, drained concurrently by four consumers ingesting as
// bundles clear authentication — and requires verdicts byte-identical
// to the batch-built verifier.
func TestStreamingIngestMatchesBatch(t *testing.T) {
	dep, keys := buildMultiPathScenario(t, true)

	// Sign one bundle per HOP.
	bus := dissem.NewBus()
	reg := dissem.Registry{}
	var hops []receipt.HOPID
	for hop, proc := range dep.Processors {
		var seed [32]byte
		seed[0] = byte(hop)
		signer := dissem.NewSigner(seed)
		reg[hop] = signer.Public()
		srv := dissem.NewServer(hop, signer)
		srv.PublishEpoch(0, proc.CombinedSamples(), proc.Aggs)
		bus.Attach(srv)
		hops = append(hops, hop)
	}

	v := NewVerifierFor(dep.Layout(), keys[7])
	v.SetConfig(dep.VerifierConfig())
	const consumers = 4
	var wg sync.WaitGroup
	errs := make([]error, consumers)
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := i; j < len(hops) && errs[i] == nil; j += consumers {
				_, errs[i] = bus.CollectSince(reg, hops[j], 0, func(b *dissem.Bundle) error {
					v.Ingest(b)
					return nil
				})
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	want := fmt.Sprintf("%+v", dep.NewVerifier(keys[7]).VerifyAllLinks())
	got := fmt.Sprintf("%+v", v.VerifyAllLinks())
	if got != want {
		t.Fatalf("streamed-ingest verdicts differ from batch:\nbatch:  %s\nstream: %s", want, got)
	}
}

// corruptSeq breaks the signature of the bundle at one log position.
type corruptSeq uint64

func (corruptSeq) Name() string { return "corrupt-seq" }
func (c corruptSeq) Serve(_ string, seq, _ uint64, sb dissem.SignedBundle) (dissem.SignedBundle, bool) {
	if seq == uint64(c) {
		sb.Sig = append([]byte{sb.Sig[0] ^ 0xff}, sb.Sig[1:]...)
	}
	return sb, true
}

// TestIngestRejectsBadBundles checks the streaming path's signature
// discipline: forged or unknown-origin bundles never enter the store.
func TestIngestRejectsBadBundles(t *testing.T) {
	var seed [32]byte
	seed[0] = 1
	legit := dissem.NewSigner(seed)
	seed[0] = 2
	evil := dissem.NewSigner(seed)
	reg := dissem.Registry{4: legit.Public()}

	path := receipt.PathKeyOf(
		packet.MakePrefix(10, 1, 0, 0, 16),
		packet.MakePrefix(172, 16, 0, 0, 16), 3, 5, 2_000_000)
	samples := []receipt.SampleReceipt{{
		Path:    path,
		Samples: []receipt.SampleRecord{{PktID: 1, TimeNS: 2}},
	}}

	v := NewVerifier(Layout{})
	ingest := func(b *dissem.Bundle) error {
		v.Ingest(b)
		return nil
	}
	forged, unknown := dissem.NewServer(4, evil), dissem.NewServer(9, legit)
	forged.PublishEpoch(0, samples, nil)
	unknown.PublishEpoch(0, samples, nil)
	bus := dissem.NewBus()
	bus.Attach(forged)
	bus.Attach(unknown)
	if _, err := bus.CollectSince(reg, 4, 0, ingest); !errors.Is(err, dissem.ErrBadSignature) {
		t.Errorf("forged bundle: err %v, want ErrBadSignature", err)
	}
	if _, err := bus.CollectSince(reg, 9, 0, ingest); err == nil {
		t.Error("unknown-origin bundle accepted")
	}
	if got := v.SampleCount(4); got != 0 {
		t.Fatalf("rejected bundles left %d samples in the store", got)
	}

	// A bad bundle mid-stream stops the stream after the bundle before
	// it, and is named so the consumer can skip it.
	srv := dissem.NewServer(4, legit)
	for i := 0; i < 3; i++ {
		srv.PublishEpoch(0, samples, nil)
	}
	srv.SetTamper(corruptSeq(1))
	bus.Attach(srv)
	next, err := bus.CollectSince(reg, 4, 0, ingest)
	var be *dissem.BundleError
	if !errors.As(err, &be) || be.Seq != 1 || next != 1 {
		t.Fatalf("stream with a forged bundle: next %d, err %v; want a BundleError at seq 1", next, err)
	}
	if got := v.SampleCount(4); got != 1 {
		t.Fatalf("stream ingested %d distinct samples, want 1 (pre-error bundle only)", got)
	}
}

// TestKeylessVerifierAnswersForOneKey pins what a keyless verifier does
// with several traffic keys: it answers for the lowest exactly as a
// verifier keyed to it would, whatever order they arrived in, and never
// merges the others in. Fed one key, it answers for that key.
func TestKeylessVerifierAnswersForOneKey(t *testing.T) {
	keyA := receipt.PathKeyOf(
		packet.MakePrefix(10, 1, 0, 0, 16),
		packet.MakePrefix(172, 16, 0, 0, 16), 3, 5, 2_000_000)
	keyB := receipt.PathKeyOf(
		packet.MakePrefix(10, 2, 0, 0, 16),
		packet.MakePrefix(172, 16, 0, 0, 16), 3, 5, 2_000_000)
	feedB := func(v *Verifier) {
		v.AddSampleReceipt(4, receipt.SampleReceipt{Path: keyB,
			Samples: []receipt.SampleRecord{{PktID: 2, TimeNS: 20}}})
		v.AddSampleReceipt(5, receipt.SampleReceipt{Path: keyB,
			Samples: []receipt.SampleRecord{{PktID: 2, TimeNS: 25}}})
	}
	feedA := func(v *Verifier) {
		v.AddSampleReceipt(4, receipt.SampleReceipt{Path: keyA,
			Samples: []receipt.SampleRecord{{PktID: 1, TimeNS: 10}}})
		v.AddSampleReceipt(4, receipt.SampleReceipt{Path: keyA,
			Samples: []receipt.SampleRecord{{PktID: 3, TimeNS: 30}}})
		v.AddAggReceipts(4, []receipt.AggReceipt{{Path: keyA, PktCnt: 7}})
		v.AddSampleReceipt(5, receipt.SampleReceipt{Path: keyA,
			Samples: []receipt.SampleRecord{{PktID: 1, TimeNS: 15}, {PktID: 3, TimeNS: 35}}})
	}
	low, lowFeed, highFeed := keyA, feedA, feedB
	if keyB.Key.Compare(keyA.Key) < 0 {
		low, lowFeed, highFeed = keyB, feedB, feedA
	}
	keyed := NewVerifierFor(Layout{}, low.Key)
	lowFeed(keyed)
	for _, order := range [][]func(*Verifier){{feedA, feedB}, {feedB, feedA}} {
		v := NewVerifier(Layout{})
		for _, feed := range order {
			feed(v)
		}
		if got, want := v.SampleCount(4), keyed.SampleCount(4); got != want {
			t.Fatalf("keyless verifier fed both keys sees %d samples at HOP 4, the lower key has %d", got, want)
		}
		if got, want := v.DelaysBetween(4, 5), keyed.DelaysBetween(4, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("keyless delays %v, the lower key's %v", got, want)
		}
	}
	single := NewVerifier(Layout{})
	highFeed(single)
	alone := NewVerifier(Layout{})
	lowFeed(alone)
	if single.SampleCount(4) == 0 || single.SampleCount(4) == alone.SampleCount(4) {
		t.Fatalf("keyless verifier fed one key: %d samples at HOP 4 (the other key has %d)", single.SampleCount(4), alone.SampleCount(4))
	}
}

// markerSplit draws n uniform packet digests and partitions them into
// markers and others under mu (digests, not sequence numbers: the
// marker test compares a digest against µ directly).
func markerSplit(n int, mu uint64) (markers, others []uint64) {
	rng := stats.NewRNG(97)
	for i := 0; i < n; i++ {
		id := rng.Uint64()
		if hashing.Exceeds(id, mu) {
			markers = append(markers, id)
		} else {
			others = append(others, id)
		}
	}
	return markers, others
}

// biasWorld hand-builds two HOPs whose marker samples cross with delay
// markerDelay and whose σ-keyed samples cross with otherDelay.
func biasWorld(t *testing.T, mu uint64, markerDelay, otherDelay int64) *Verifier {
	t.Helper()
	markers, others := markerSplit(4000, mu)
	if len(markers) < 10 || len(others) < 10 {
		t.Fatalf("degenerate split: %d markers, %d others", len(markers), len(others))
	}
	var up, down []receipt.SampleRecord
	tNS := int64(0)
	add := func(id uint64, delay int64) {
		up = append(up, receipt.SampleRecord{PktID: id, TimeNS: tNS})
		down = append(down, receipt.SampleRecord{PktID: id, TimeNS: tNS + delay})
		tNS += 1000
	}
	for _, id := range markers {
		add(id, markerDelay)
	}
	for _, id := range others {
		add(id, otherDelay)
	}
	v := NewVerifier(Layout{})
	v.SetConfig(VerifierConfig{MarkerThreshold: mu})
	v.AddSampleReceipt(1, receipt.SampleReceipt{Samples: up})
	v.AddSampleReceipt(2, receipt.SampleReceipt{Samples: down})
	return v
}

// TestCheckMarkerBiasEdgeCases covers the error paths: missing
// configuration, empty sample sets, and too-thin populations.
func TestCheckMarkerBiasEdgeCases(t *testing.T) {
	// Unconfigured µ.
	v := NewVerifier(Layout{})
	if _, err := v.CheckMarkerBias(1, 2); err == nil {
		t.Error("unconfigured marker threshold accepted")
	}
	// Configured but empty: no receipts at all.
	mu := hashing.ThresholdForRate(0.5)
	v.SetConfig(VerifierConfig{MarkerThreshold: mu})
	rep, err := v.CheckMarkerBias(1, 2)
	if err == nil {
		t.Error("empty sample sets accepted")
	}
	if rep.MarkerN != 0 || rep.OtherN != 0 {
		t.Errorf("empty report has counts %d/%d", rep.MarkerN, rep.OtherN)
	}
	// One thin HOP: a single shared sample is still too few.
	v.AddSampleReceipt(1, receipt.SampleReceipt{Samples: []receipt.SampleRecord{{PktID: 1, TimeNS: 0}}})
	v.AddSampleReceipt(2, receipt.SampleReceipt{Samples: []receipt.SampleRecord{{PktID: 1, TimeNS: 5}}})
	if _, err := v.CheckMarkerBias(1, 2); err == nil {
		t.Error("thin populations accepted")
	}
}

// TestCheckMarkerBiasSingleHOP compares a HOP against itself: every
// delay is zero, which must read as unbiased.
func TestCheckMarkerBiasSingleHOP(t *testing.T) {
	mu := hashing.ThresholdForRate(0.5)
	markers, others := markerSplit(200, mu)
	var recs []receipt.SampleRecord
	for i, id := range append(markers, others...) {
		recs = append(recs, receipt.SampleRecord{PktID: id, TimeNS: int64(i) * 1000})
	}
	v := NewVerifier(Layout{})
	v.SetConfig(VerifierConfig{MarkerThreshold: mu})
	v.AddSampleReceipt(3, receipt.SampleReceipt{Samples: recs})
	rep, err := v.CheckMarkerBias(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Suspicious {
		t.Errorf("self-comparison flagged as biased: %+v", rep)
	}
	if rep.MarkerP90MS != 0 || rep.OtherP90MS != 0 {
		t.Errorf("self-comparison has non-zero delays: %+v", rep)
	}
}

// TestCheckMarkerBiasDetectsPreferentialMarkers pins the detector's
// two sides: preferential marker treatment trips it, honest uniform
// treatment does not.
func TestCheckMarkerBiasDetectsPreferentialMarkers(t *testing.T) {
	mu := hashing.ThresholdForRate(0.5)
	biased := biasWorld(t, mu, 1_000, 5_000_000)
	rep, err := biased.CheckMarkerBias(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Suspicious {
		t.Errorf("fast markers not flagged: %+v", rep)
	}
	honest := biasWorld(t, mu, 5_000_000, 5_000_000)
	rep, err = honest.CheckMarkerBias(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Suspicious {
		t.Errorf("uniform treatment flagged: %+v", rep)
	}
}

// TestDelayQuantilesZeroConfidence checks that a zero (or one)
// confidence is rejected at the estimation layer rather than
// producing degenerate bounds.
func TestDelayQuantilesZeroConfidence(t *testing.T) {
	v := NewVerifier(Layout{})
	recs := make([]receipt.SampleRecord, 50)
	for i := range recs {
		recs[i] = receipt.SampleRecord{PktID: uint64(i + 1), TimeNS: int64(i) * 1000}
	}
	v.AddSampleReceipt(1, receipt.SampleReceipt{Samples: recs})
	v.AddSampleReceipt(2, receipt.SampleReceipt{Samples: recs})
	if _, err := v.DelayQuantiles(1, 2, []float64{0.5}, 0); err == nil {
		t.Error("zero confidence accepted")
	}
	if _, err := v.DelayQuantiles(1, 2, []float64{0.5}, 1); err == nil {
		t.Error("confidence 1 accepted")
	}
	if _, err := v.DelayQuantiles(1, 2, []float64{0.5}, 0.95); err != nil {
		t.Errorf("valid confidence rejected: %v", err)
	}
}

// SampleCount returns the number of distinct sampled packets ingested
// for a HOP.
func (v *Verifier) SampleCount(hop receipt.HOPID) int {
	w := v.indexFor(hop)
	return len(w.uniq())
}

// DelayQuantiles estimates the delay quantiles of the traffic between
// two HOPs from their matched samples.
func (v *Verifier) DelayQuantiles(a, b receipt.HOPID, qs []float64, confidence float64) ([]quantile.Estimate, error) {
	delays := v.DelaysBetween(a, b)
	if len(delays) == 0 {
		return nil, fmt.Errorf("core: no matched samples between %v and %v", a, b)
	}
	return quantile.Quantiles(delays, qs, confidence)
}
