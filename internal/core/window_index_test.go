package core

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"vpm/internal/dissem"
	"vpm/internal/hashing"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
	"vpm/internal/trace"
)

// epochStream is a recorded stream regrouped for replay: what each HOP
// sealed, by epoch.
type epochStream struct {
	hops   []receipt.HOPID // ascending
	epochs []map[receipt.HOPID]sealedEpoch
}

func streamOf(rec *epochRecorder) *epochStream {
	s := &epochStream{}
	for hop, sealed := range rec.byHOP {
		s.hops = append(s.hops, hop)
		for _, se := range sealed {
			for int(se.epoch) >= len(s.epochs) {
				s.epochs = append(s.epochs, make(map[receipt.HOPID]sealedEpoch))
			}
			s.epochs[se.epoch][hop] = se
		}
	}
	slices.Sort(s.hops)
	return s
}

// rebuilt is the oracle: the index the window used to assemble per
// target epoch — one leaf fed epochs lo..hi in (epoch, HOP) order, as a
// hand-fed keyless verifier files them.
func (s *epochStream) rebuilt(lo, hi int) leaf {
	v := NewVerifier(Layout{})
	for e := max(lo, 0); e <= hi && e < len(s.epochs); e++ {
		for _, hop := range s.hops {
			se := s.epochs[e][hop]
			v.add(hop, se.samples, se.aggs)
		}
	}
	return v.leaf
}

// window fills a WindowedStore with the whole stream, finished.
func (s *epochStream) window(t *testing.T) *WindowedStore {
	t.Helper()
	win, err := NewWindowedStore(s.hops, len(s.epochs)+1)
	if err != nil {
		t.Fatal(err)
	}
	for e, epoch := range s.epochs {
		for _, hop := range s.hops {
			se := epoch[hop]
			if err := win.IngestSealed(hop, EpochID(e), se.samples, se.aggs); err != nil {
				t.Fatal(err)
			}
		}
	}
	win.FinishStream()
	return win
}

// oracleVerifyEpoch is the per-epoch verification as it ran over the
// rebuilt stores: layouts, link lists, owned links and domain segments
// recomputed per (key, route), claims looked up in a store of their
// own.
func oracleVerifyEpoch(t *testing.T, s *epochStream, epoch int, layoutsFor func(packet.PathKey) []Layout, cfg VerifierConfig) EpochReport {
	t.Helper()
	view, claims := s.rebuilt(epoch-1, epoch+1), s.rebuilt(epoch, epoch)
	rep := EpochReport{Epoch: EpochID(epoch)}
	for _, key := range claims.keys() {
		layouts := layoutsFor(key)
		owned := OwnedLinks(layouts)
		for ri, layout := range layouts {
			v := &Verifier{layout: layout, cfg: cfg, leaf: view, key: key, keyed: true}
			scope := &checkScope{
				view:         v,
				claims:       claims[key],
				headComplete: epoch <= 1,
				tailComplete: epoch+1 >= len(s.epochs)-1,
				scratch:      new(kernelScratch),
			}
			kr := EpochKeyReport{Key: key, Route: ri}
			links := layout.Links()
			for _, li := range owned[ri] {
				kr.Links = append(kr.Links, scope.checkLink(li, links[li].Up, links[li].Down))
			}
			for _, seg := range layout.DomainSegments() {
				dr, err := scope.domainReport(seg, quantile.DefaultQuantiles, 0.95)
				if err != nil {
					t.Fatal(err)
				}
				kr.Domains = append(kr.Domains, dr)
			}
			kr.Blames = AttributeBlame(layout, EpochID(epoch), kr.Links)
			if cfg.BiasChecks {
				for _, seg := range layout.DomainSegments() {
					bias, err := v.CheckMarkerBias(seg.Up, seg.Down)
					if err != nil {
						continue
					}
					kr.Bias = append(kr.Bias, DomainBiasVerdict{Domain: seg.Name, Report: bias})
					if bias.Suspicious {
						kr.Blames = append(kr.Blames, BlameMarkerBias(EpochID(epoch), seg, bias))
					}
				}
			}
			rep.Keys = append(rep.Keys, kr)
		}
	}
	return rep
}

// firstSampled returns the first epoch ≥ from in which hop sealed a
// non-empty sample receipt, and that receipt's position.
func (s *epochStream) firstSampled(t *testing.T, hop receipt.HOPID, from int) (epoch, ri int) {
	t.Helper()
	for e := from; e < len(s.epochs); e++ {
		for ri, r := range s.epochs[e][hop].samples {
			if len(r.Samples) > 0 {
				return e, ri
			}
		}
	}
	t.Fatalf("%v sealed no samples from epoch %d on", hop, from)
	return 0, 0
}

// plantHardCases rewrites the stream so adjacent epochs disagree in
// every way the window has a rule for. a, b and c are three HOPs that
// carried samples; mu is the marker threshold.
func (s *epochStream) plantHardCases(t *testing.T, a, b, c receipt.HOPID, mu uint64) {
	t.Helper()
	// The same PktID sealed in two epochs with different times: the
	// newer epoch's must win.
	e, ri := s.firstSampled(t, a, 1)
	if e+1 >= len(s.epochs) {
		t.Fatal("stream too short to plant a cross-epoch duplicate")
	}
	dup := s.epochs[e][a].samples[ri]
	dup.Samples = []receipt.SampleRecord{{PktID: dup.Samples[0].PktID, TimeNS: dup.Samples[0].TimeNS + 777}}
	next := s.epochs[e+1][a]
	next.samples = append(slices.Clone(next.samples), dup)
	s.epochs[e+1][a] = next
	afterDup := e + 2

	// A PathID whose MaxDiffNS changes between epochs: the last epoch
	// that carried a sample receipt speaks.
	e, _ = s.firstSampled(t, b, 1)
	se := s.epochs[e][b]
	se.samples = slices.Clone(se.samples)
	for i := range se.samples {
		se.samples[i].Path.MaxDiffNS += 1000
	}
	s.epochs[e][b] = se

	// Markers with equal timestamps in adjacent epochs: the older
	// epoch's stays first on the merged timeline.
	e, ri = s.firstSampled(t, c, 1)
	if e+1 >= len(s.epochs) {
		t.Fatal("stream too short to plant tied markers")
	}
	marker := func(salt uint64) uint64 {
		for id := mu + 1 + salt; ; id += 2 {
			if hashing.Exceeds(id, mu) {
				return id
			}
		}
	}
	path := s.epochs[e][c].samples[ri].Path
	const tie = int64(1) << 40
	for k := 0; k < 2; k++ {
		se := s.epochs[e+k][c]
		se.samples = append(slices.Clone(se.samples), receipt.SampleReceipt{Path: path, Samples: []receipt.SampleRecord{
			{PktID: marker(uint64(4 * k)), TimeNS: tie},
			{PktID: marker(uint64(4*k + 2)), TimeNS: tie},
		}})
		s.epochs[e+k][c] = se
	}

	// A HOP with aggregates but no samples (in an epoch other than the
	// two the duplicate sits in).
	e, _ = s.firstSampled(t, a, afterDup)
	se = s.epochs[e][a]
	se.samples = nil
	s.epochs[e][a] = se
}

// checkViewsMatchOracle compares, for every target epoch, the view's
// window of every (HOP, key) with the rebuilt store's index, then the
// encoded report with the oracle verification's.
func checkViewsMatchOracle(t *testing.T, s *epochStream, layoutsFor func(packet.PathKey) []Layout, rolling func(*WindowedStore) *RollingVerifier, cfg VerifierConfig) {
	t.Helper()
	win := s.window(t)
	rv := rolling(win)
	mu := cfg.MarkerThreshold
	multiLeaf, pathConflict, aggOnly := 0, 0, 0
	for e := range s.epochs {
		view, err := win.View(EpochID(e))
		if err != nil {
			t.Fatal(err)
		}
		wantLeaves := 3
		if e == 0 || e == len(s.epochs)-1 {
			wantLeaves = 2
		}
		if len(s.epochs) == 1 {
			wantLeaves = 1
		}
		if view.n != wantLeaves {
			t.Fatalf("epoch %d: view spans %d leaves, want %d", e, view.n, wantLeaves)
		}
		oracle, claims := s.rebuilt(e-1, e+1), s.rebuilt(e, e)
		if got, want := view.leaves[view.target].keys(), claims.keys(); !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: claimed keys %v, oracle %v", e, got, want)
		}
		var scratch []receipt.AggReceipt
		for _, key := range oracle.keys() {
			wins := view.resolve(key, nil, &scratch)
			for _, hop := range s.hops {
				want := soleWindow(oracle[key].of(hop))
				var got window
				for i := range wins {
					if wins[i].hop == hop {
						got = wins[i].win
					}
				}
				if (got.n == 0) != (want.n == 0) {
					t.Fatalf("epoch %d %v %v: window has %d leaves, oracle %d", e, hop, key, got.n, want.n)
				}
				if got.n > 1 {
					multiLeaf++
				}
				gp, gok := got.path()
				wp, wok := want.path()
				if gp != wp || gok != wok {
					t.Fatalf("epoch %d %v %v: path %v/%v, oracle %v/%v", e, hop, key, gp, gok, wp, wok)
				}
				for l := 0; l < got.n; l++ {
					if got.leaves[l].hasPath && got.leaves[l].pathID != gp {
						pathConflict++
					}
				}
				if !reflect.DeepEqual(got.uniq(), want.uniq()) {
					t.Fatalf("epoch %d %v %v: uniq order differs\n got %v\nwant %v", e, hop, key, got.uniq(), want.uniq())
				}
				for _, id := range want.uniq() {
					gt, gok := got.timeOf(id)
					wt, wok := want.timeOf(id)
					if gt != wt || gok != wok {
						t.Fatalf("epoch %d %v %v: timeOf(%#x) = %d/%v, oracle %d/%v", e, hop, key, id, gt, gok, wt, wok)
					}
				}
				if _, ok := got.timeOf(^uint64(0)); ok {
					t.Fatalf("epoch %d %v %v: found a packet nobody sampled", e, hop, key)
				}
				if got.hasSamples() != want.hasSamples() {
					t.Fatalf("epoch %d %v %v: hasSamples %v, oracle %v", e, hop, key, got.hasSamples(), want.hasSamples())
				}
				if want.n > 0 && !want.hasSamples() && len(want.aggReceipts()) > 0 {
					aggOnly++
				}
				if g, w := got.markerTimeline(mu), want.markerTimeline(mu); !(len(g) == 0 && len(w) == 0) && !reflect.DeepEqual(g, w) {
					t.Fatalf("epoch %d %v %v: marker timeline differs\n got %v\nwant %v", e, hop, key, g, w)
				}
				if g, w := got.aggReceipts(), want.aggReceipts(); !(len(g) == 0 && len(w) == 0) && !reflect.DeepEqual(g, w) {
					t.Fatalf("epoch %d %v %v: aggregates differ\n got %v\nwant %v", e, hop, key, g, w)
				}
			}
		}
		rep, err := rv.VerifyEpoch(EpochID(e))
		if err != nil {
			t.Fatal(err)
		}
		got, err := EncodeEpochReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EncodeEpochReport(oracleVerifyEpoch(t, s, e, layoutsFor, cfg))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("epoch %d: report differs from the oracle's\n got %s\nwant %s", e, got, want)
		}
	}
	if multiLeaf == 0 || pathConflict == 0 || aggOnly == 0 {
		t.Fatalf("hard cases not exercised: %d multi-leaf windows, %d leaves overruled on the PathID, %d aggregate-only indexes",
			multiLeaf, pathConflict, aggOnly)
	}
}

// sampledHOPs returns three distinct HOPs of the stream that sealed
// samples.
func (s *epochStream) sampledHOPs(t *testing.T) (a, b, c receipt.HOPID) {
	t.Helper()
	var found []receipt.HOPID
	for _, hop := range s.hops {
		for e := 1; e < len(s.epochs)-2 && !slices.Contains(found, hop); e++ {
			for _, r := range s.epochs[e][hop].samples {
				if len(r.Samples) > 0 {
					found = append(found, hop)
					break
				}
			}
		}
	}
	if len(found) < 3 {
		t.Fatalf("only %d HOPs sealed samples mid-stream", len(found))
	}
	return found[0], found[1], found[2]
}

// TestWindowViewMatchesRebuiltStore holds the ±1 evidence view — a
// window over per-segment leaves indexed once — to the store it
// replaced, rebuilt per target epoch from the raw receipts: every
// (HOP, key) answers every kernel query identically, and the encoded
// reports are byte-equal, on a Fig1 and a Clos stream doctored so that
// adjacent epochs conflict.
func TestWindowViewMatchesRebuiltStore(t *testing.T) {
	t.Run("fig1", func(t *testing.T) {
		tc := equivTraceConfig(2, 40_000, int64(3e8))
		pkts, err := trace.Generate(tc)
		if err != nil {
			t.Fatal(err)
		}
		dep, rec := runEpochDeployment(t, tc, [][]packet.Packet{pkts}, int64(5e7))
		s := streamOf(rec)
		cfg := dep.VerifierConfig()
		cfg.BiasChecks = true
		a, b, c := s.sampledHOPs(t)
		s.plantHardCases(t, a, b, c, cfg.MarkerThreshold)
		layout := dep.Layout()
		checkViewsMatchOracle(t, s,
			func(packet.PathKey) []Layout { return []Layout{layout} },
			func(win *WindowedStore) *RollingVerifier { return NewRollingVerifier(layout, cfg, win, nil, 0.95) },
			cfg)
	})
	t.Run("clos", func(t *testing.T) {
		keys := netsim.TopoKeys(6)
		topo := netsim.ClosTopology(91, 2, 2, keys)
		tc := topoTraceConfig(keys, 8000, 3e8)
		pkts, err := trace.Generate(tc)
		if err != nil {
			t.Fatal(err)
		}
		dep, rec := runEpochTopo(t, topo, tc, pkts, meshDeployConfig(), int64(5e7))
		s := streamOf(rec)
		cfg := dep.VerifierConfig()
		a, b, c := s.sampledHOPs(t)
		s.plantHardCases(t, a, b, c, cfg.MarkerThreshold)
		layouts := dep.KeyLayouts()
		checkViewsMatchOracle(t, s,
			func(key packet.PathKey) []Layout { return layouts[key] },
			func(win *WindowedStore) *RollingVerifier {
				rv := NewRollingVerifier(Layout{}, cfg, win, nil, 0.95)
				rv.SetKeyLayouts(layouts)
				return rv
			},
			cfg)
	})
}

// runEpochTopo replays pkts over topo through an EpochDriver rotating
// every intervalNS, recording each HOP's sealed epochs.
func runEpochTopo(t testing.TB, topo *netsim.Topology, tc trace.Config, pkts []packet.Packet, dc DeployConfig, intervalNS int64) (*Deployment, *epochRecorder) {
	t.Helper()
	dep, err := NewTopoDeployment(topo, tc.Table(), dc)
	if err != nil {
		t.Fatal(err)
	}
	rec := newEpochRecorder()
	driver, err := NewEpochDriver(dep, intervalNS, rec.sink)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := netsim.NewTopoRunner(topo, tc.Table())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(pkts, driver.Observers()); err != nil {
		t.Fatal(err)
	}
	driver.Close()
	return dep, rec
}

// TestSampleIndexMatchesMap holds the sorted-slice sample index to the
// map it stands in for, on receipts with packets repeated within and
// across them and on ids bunched where the rank guess is worst.
func TestSampleIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var si sampleIndex
		times := make(map[uint64]int64)
		var order []uint64
		ids := func() uint64 {
			switch trial % 3 {
			case 0:
				return rng.Uint64()
			case 1:
				return uint64(rng.Intn(40)) // dense, repeating, all at the bottom
			}
			return ^uint64(0) - uint64(rng.Intn(1000)) // bunched at the top
		}
		for receipts := 1 + rng.Intn(4); receipts > 0; receipts-- {
			recs := make([]receipt.SampleRecord, 1+rng.Intn(60))
			for i := range recs {
				recs[i] = receipt.SampleRecord{PktID: ids(), TimeNS: rng.Int63()}
				if _, seen := times[recs[i].PktID]; !seen {
					order = append(order, recs[i].PktID)
				}
				times[recs[i].PktID] = recs[i].TimeNS
			}
			si.add(recs, new(leafSlab))
		}
		if !reflect.DeepEqual(si.uniq, order) {
			t.Fatalf("trial %d: first-arrival order differs\n got %v\nwant %v", trial, si.uniq, order)
		}
		if len(si.byID) != len(times) {
			t.Fatalf("trial %d: %d distinct packets, want %d", trial, len(si.byID), len(times))
		}
		for id, want := range times {
			if i, ok := si.find(id); !ok || si.byID[i].TimeNS != want {
				t.Fatalf("trial %d: find(%#x) = %d/%v, want time %d", trial, id, i, ok, want)
			}
		}
		for probes := 0; probes < 100; probes++ {
			id := ids() + uint64(rng.Intn(3)) - 1
			if _, ok := si.find(id); ok != (func() bool { _, in := times[id]; return in })() {
				t.Fatalf("trial %d: find(%#x) = %v, map disagrees", trial, id, ok)
			}
		}
	}
}

// TestSealIndexAllocsPerReceipt: indexing a sealed (HOP, epoch) cuts
// every index value from one slab per kind, so the objects it allocates
// do not grow with the receipts it indexes — at most one per slab kind,
// and one for the store's list of key runs, which later seals reuse,
// for 10 keys as for 1 000, beyond what the leaf map takes to
// grow, which is measured on its own and allowed for. Later HOPs
// reporting the same keys grow each key's hop list from their own
// slabs, and no key's list reaches another's.
func TestSealIndexAllocsPerReceipt(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector include its own")
	}
	const perDelivery = 6 + 1 // the fields of leafSlab, and the store's runs
	delivery := func(keys []packet.PathKey, hop receipt.HOPID) ([]receipt.SampleReceipt, []receipt.AggReceipt) {
		samples := make([]receipt.SampleReceipt, len(keys))
		aggs := make([]receipt.AggReceipt, len(keys))
		for i, k := range keys {
			path := receipt.PathID{Key: k, PrevHOP: hop - 1, NextHOP: hop + 1}
			id := uint64(i) << 32
			samples[i] = receipt.SampleReceipt{Path: path, Samples: []receipt.SampleRecord{{PktID: id | 2, TimeNS: 2}, {PktID: id | 1, TimeNS: 1}}}
			aggs[i] = receipt.AggReceipt{Path: path, Agg: receipt.AggID{First: id | 1, Last: id | 2}, PktCnt: 2}
		}
		return samples, aggs
	}
	hops := []receipt.HOPID{3, 5, 7}
	for _, n := range []int{10, 1000} {
		keys := netsim.WideKeys(n)
		slices.SortFunc(keys, packet.PathKey.Compare)
		samples, aggs := delivery(keys, hops[0])
		seal := func(samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) func() {
			return func() {
				w, err := NewWindowedStore(hops[:1], 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.IngestSealed(hops[0], 0, samples, aggs); err != nil {
					t.Fatal(err)
				}
			}
		}
		indexed := testing.AllocsPerRun(20, seal(samples, aggs))
		empty := testing.AllocsPerRun(20, seal(nil, nil))
		fill := func(keys []packet.PathKey) func() {
			return func() {
				leafSink = make(leaf)
				for _, k := range keys {
					leafSink[k] = nil
				}
			}
		}
		growth := testing.AllocsPerRun(20, fill(keys)) - testing.AllocsPerRun(20, fill(nil))
		extra := indexed - empty - growth
		t.Logf("%d keys (%d receipts): %.0f allocations, %.0f of them the leaf map's growth", n, 2*n, indexed-empty, growth)
		if extra > perDelivery {
			t.Errorf("%d keys (%d receipts): indexing allocates %.0f objects beyond the leaf map's growth (%.3f per receipt), want at most %d",
				n, 2*n, extra, extra/float64(2*n), perDelivery)
		}

		w, err := NewWindowedStore(hops, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hops {
			s, a := delivery(keys, h)
			if err := w.IngestSealed(h, 0, s, a); err != nil {
				t.Fatal(err)
			}
		}
		l := w.segs[0].index
		for _, k := range keys {
			ki := l[k]
			if ki == nil || len(ki.hops) != len(hops) {
				t.Fatalf("%v: indexed %+v, want one entry per HOP of %v", k, ki, hops)
			}
			for i, h := range ki.hops {
				if h.hop != hops[i] || h.pi.pathID.Key != k || h.pi.pathID.PrevHOP != hops[i]-1 || len(h.pi.aggs) != 1 || len(h.pi.uniqOrder()) != 2 {
					t.Fatalf("%v: entry %d is %v with path %+v, want %v's index of the key", k, i, h.hop, h.pi.pathID, hops[i])
				}
			}
		}
	}
}

// leafSink keeps the leaf TestSealIndexAllocsPerReceipt fills on the
// heap, where a segment's leaf lives.
var leafSink leaf

// oneSample builds a bundle carrying one sample record and one
// aggregate for key.
func oneSample(hop receipt.HOPID, epoch uint64, key packet.PathKey, pkt uint64, tNS int64) *dissem.Bundle {
	path := receipt.PathID{Key: key, MaxDiffNS: 5}
	return &dissem.Bundle{
		Origin:  hop,
		Epoch:   epoch,
		Samples: []receipt.SampleReceipt{{Path: path, Samples: []receipt.SampleRecord{{PktID: pkt, TimeNS: tNS}}}},
		Aggs:    []receipt.AggReceipt{{Path: path, Agg: receipt.AggID{First: pkt, Last: pkt}, PktCnt: 1}},
	}
}

// timeIn looks pkt up in hop's window for key within view.
func timeIn(view *epochView, key packet.PathKey, hop receipt.HOPID, pkt uint64) (int64, bool) {
	var scratch []receipt.AggReceipt
	for _, hw := range view.resolve(key, nil, &scratch) {
		if hw.hop == hop {
			return hw.win.timeOf(pkt)
		}
	}
	return 0, false
}

// TestWindowIndexLifecycle: a (HOP, epoch) is indexed when its HOP
// seals and never again; until then its receipts are indexed per view,
// so a bundle that lands after a neighbour's view was taken is in the
// next one; a bundle for a sealed (HOP, epoch) bounces off without
// touching the index.
func TestWindowIndexLifecycle(t *testing.T) {
	key := netsim.TopoKeys(1)[0]
	win, err := NewWindowedStore([]receipt.HOPID{1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(b *dissem.Bundle) {
		t.Helper()
		if err := win.IngestBundle(b); err != nil {
			t.Fatal(err)
		}
	}
	seal := func(hop receipt.HOPID, epoch EpochID) {
		t.Helper()
		if err := win.SealHOP(hop, epoch); err != nil {
			t.Fatal(err)
		}
	}
	// Epoch 0: HOP 1 seals, HOP 2 has delivered one bundle but not sealed.
	ingest(oneSample(1, 0, key, 100, 10))
	seal(1, 0)
	ingest(oneSample(2, 0, key, 100, 20))
	if view, err := win.View(0); err != nil || view.n != 1 {
		t.Fatalf("a lone epoch's view: %+v, %v", view, err)
	}
	// Epoch 1 exists so epoch 0 can be seen as a neighbour.
	ingest(oneSample(1, 1, key, 200, 30))
	seal(1, 1)
	if st := win.Stats(); st.IndexBuilds != 3 || st.IndexedSegments != 0 {
		t.Fatalf("after two seals: %+v", st)
	}

	view, err := win.View(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := timeIn(view, key, 2, 100); !ok || got != 20 {
		t.Fatalf("unsealed HOP's bundle missing from its neighbour's view: %d/%v", got, ok)
	}
	if _, ok := timeIn(view, key, 2, 101); ok {
		t.Fatal("view shows a bundle that has not arrived")
	}
	// A late bundle for the still-unsealed (HOP 2, epoch 0)…
	ingest(oneSample(2, 0, key, 101, 21))
	if _, ok := timeIn(view, key, 2, 101); ok {
		t.Fatal("a view already taken changed under its reader")
	}
	// …is in the next view.
	view, err = win.View(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := timeIn(view, key, 2, 101); !ok || got != 21 {
		t.Fatalf("late bundle missing from the next view: %d/%v", got, ok)
	}

	// Sealing indexes both bundles once; from then on views share the
	// segment's own leaf.
	before := win.Stats().IndexBuilds
	seal(2, 0)
	if st := win.Stats(); st.IndexBuilds != before+1 || st.IndexedSegments != 1 {
		t.Fatalf("after the last seal of epoch 0: %+v (builds before: %d)", st, before)
	}
	v1, _ := win.View(0)
	v2, _ := win.View(1)
	if reflect.ValueOf(v1.leaves[v1.target]).Pointer() != reflect.ValueOf(v2.leaves[0]).Pointer() {
		t.Fatal("a fully sealed segment handed out two different leaves")
	}
	if got := win.Stats().IndexBuilds; got != before+1 {
		t.Fatalf("views with nothing pending indexed something: %d builds, want %d", got, before+1)
	}

	// A replayed bundle for the sealed (HOP 2, epoch 0) is refused and
	// leaves the cached index as it was.
	leafBefore := v1.leaves[v1.target]
	err = win.IngestBundle(oneSample(2, 0, key, 102, 22))
	var stale *StaleSealError
	if !errors.As(err, &stale) || stale.HOP != 2 || stale.Epoch != 0 {
		t.Fatalf("replayed bundle: %v", err)
	}
	if err := win.IngestSealed(2, 0, nil, nil); !errors.As(err, &stale) {
		t.Fatalf("re-sealed epoch: %v", err)
	}
	v3, _ := win.View(0)
	if reflect.ValueOf(v3.leaves[v3.target]).Pointer() != reflect.ValueOf(leafBefore).Pointer() {
		t.Fatal("stale bundle replaced the cached leaf")
	}
	if _, ok := timeIn(v3, key, 2, 102); ok {
		t.Fatal("stale bundle's record reached the index")
	}
	if got := win.Stats().IndexBuilds; got != before+1 {
		t.Fatalf("stale bundle caused indexing: %d builds, want %d", got, before+1)
	}
}

// TestIndexBuildsOncePerSeal: over a 30-epoch Clos run verified and
// evicted as it goes, every sealed (HOP, epoch) is indexed exactly
// once — the rebuilt-store design indexed each four times.
func TestIndexBuildsOncePerSeal(t *testing.T) {
	keys := netsim.TopoKeys(8)
	topo := netsim.ClosTopology(91, 2, 2, keys)
	const (
		epochs     = 30
		intervalNS = int64(2e7)
	)
	tc := topoTraceConfig(keys, 5000, epochs*intervalNS)
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	dep, rec := runEpochTopo(t, topo, tc, pkts, meshDeployConfig(), intervalNS)
	s := streamOf(rec)
	if len(s.epochs) < epochs {
		t.Fatalf("stream has %d epochs, want at least %d", len(s.epochs), epochs)
	}
	win, err := NewWindowedStore(s.hops, 2)
	if err != nil {
		t.Fatal(err)
	}
	rv := NewRollingVerifier(Layout{}, dep.VerifierConfig(), win, nil, 0.95)
	rv.SetKeyLayouts(dep.KeyLayouts())
	var sealed uint64
	verified, matched := 0, int64(0)
	step := func() {
		reps, err := rv.VerifyReady()
		if err != nil {
			t.Fatal(err)
		}
		verified += len(reps)
		for _, rep := range reps {
			matched += rep.MatchedSamples()
		}
		win.Evict()
	}
	for e, epoch := range s.epochs {
		for _, hop := range s.hops {
			se := epoch[hop]
			if err := win.IngestSealed(hop, EpochID(e), se.samples, se.aggs); err != nil {
				t.Fatal(err)
			}
			sealed++
		}
		step()
	}
	win.FinishStream()
	step()
	if verified != len(s.epochs) || matched == 0 {
		t.Fatalf("verified %d of %d epochs, %d matched samples", verified, len(s.epochs), matched)
	}
	st := win.Stats()
	if st.IndexBuilds != sealed {
		t.Fatalf("IndexBuilds = %d over %d sealed (HOP, epoch) pairs", st.IndexBuilds, sealed)
	}
	if st.IndexedSegments != st.Segments {
		t.Fatalf("%d of %d held segments indexed after a fully sealed run", st.IndexedSegments, st.Segments)
	}
}

// TestEvictReleasesLeaf: 200 epochs of fresh keys through a window of
// retention 2 — the live heap at the end is what it was a quarter of
// the way in, so an evicted segment's leaf (and the receipts it
// aliases) is unreachable.
func TestEvictReleasesLeaf(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement")
	}
	hops := []receipt.HOPID{1, 2}
	win, err := NewWindowedStore(hops, 2)
	if err != nil {
		t.Fatal(err)
	}
	rv := NewRollingVerifier(Layout{}, VerifierConfig{}, win, nil, 0.95)
	heapAfterGC := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const (
		epochs       = 200
		keysPerEpoch = 64
		samples      = 32
	)
	var plateau uint64
	for e := 0; e < epochs; e++ {
		for _, hop := range hops {
			var srs []receipt.SampleReceipt
			var ars []receipt.AggReceipt
			for k := 0; k < keysPerEpoch; k++ {
				n := e*keysPerEpoch + k
				path := receipt.PathID{Key: packet.PathKey{
					Src: packet.MakePrefix(10, byte(n>>16), byte(n>>8), byte(n), 32),
					Dst: packet.MakePrefix(192, byte(n>>16), byte(n>>8), byte(n), 32),
				}}
				recs := make([]receipt.SampleRecord, samples)
				for i := range recs {
					recs[i] = receipt.SampleRecord{PktID: hashing.Mix64(uint64(n*samples + i)), TimeNS: int64(i)}
				}
				srs = append(srs, receipt.SampleReceipt{Path: path, Samples: recs})
				ars = append(ars, receipt.AggReceipt{Path: path, Agg: receipt.AggID{First: recs[0].PktID, Last: recs[samples-1].PktID}, PktCnt: samples})
			}
			if err := win.IngestSealed(hop, EpochID(e), srs, ars); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rv.VerifyReady(); err != nil {
			t.Fatal(err)
		}
		win.Evict()
		if e == epochs/4 {
			plateau = heapAfterGC()
		}
	}
	final := heapAfterGC()
	st := win.Stats()
	if st.Evicted < epochs-8 {
		t.Fatalf("only %d of %d epochs evicted", st.Evicted, epochs)
	}
	if final > plateau+plateau/10 {
		t.Fatalf("live heap grew from %d to %d bytes over epochs %d..%d with %d segments held: evicted leaves are still reachable",
			plateau, final, epochs/4, epochs, st.Segments)
	}
}

// Holds reports whether the store still has a segment for epoch.
func (w *WindowedStore) Holds(epoch EpochID) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.segs[epoch]
	return ok
}
