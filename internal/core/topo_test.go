package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vpm/internal/hashing"
	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// topoTraceConfig builds a trace with one path spec per key.
func topoTraceConfig(keys []packet.PathKey, ratePPS float64, durNS int64) trace.Config {
	tc := trace.Config{Seed: 21, DurationNS: durNS}
	for _, k := range keys {
		tc.Paths = append(tc.Paths, trace.PathSpec{
			SrcPrefix:    k.Src,
			DstPrefix:    k.Dst,
			RatePPS:      ratePPS,
			ActiveFlows:  8,
			MeanFlowPkts: 50,
			UDPFraction:  0.2,
		})
	}
	return tc
}

// meshDeployConfig samples densely enough that per-key link checks see
// real populations at test scale.
func meshDeployConfig() DeployConfig {
	dc := DefaultDeployConfig()
	dc.MarkerRate = 0.004
	dc.Default.SampleRate = 0.05
	dc.Default.AggRate = 0.001
	return dc
}

// runTopo deploys cfg on topo, runs pkts, and returns the finalized
// deployment.
func runTopo(t testing.TB, topo *netsim.Topology, tc trace.Config, pkts []packet.Packet, dc DeployConfig) *Deployment {
	t.Helper()
	dep, err := NewTopoDeployment(topo, tc.Table(), dc)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := netsim.NewTopoRunner(topo, tc.Table())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(pkts, dep.Observers()); err != nil {
		t.Fatal(err)
	}
	dep.Finalize()
	return dep
}

// TestTopoSharedLinkBlame is the mesh blame-localization acceptance
// check: a lossy shared access link on a star topology is blamed on
// exactly its owning domain pair by every traffic key crossing it,
// while the disjoint honest distribution links stay violation-free.
func TestTopoSharedLinkBlame(t *testing.T) {
	keys := netsim.TopoKeys(4)
	topo := netsim.StarTopology(31, 5, keys)
	ll, err := lossmodel.FromTargetLoss(0.3, 4, stats.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	topo.Links[0].Loss = ll // the shared leaf0→hub access link

	tc := topoTraceConfig(keys, 25000, 2e8)
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	dep := runTopo(t, topo, tc, pkts, meshDeployConfig())

	rep, _ := onceBytes(t, dep, dep.Seal)
	perKey := make(map[packet.PathKey][]Blame)
	for _, kr := range rep.Keys {
		perKey[kr.Key] = append(perKey[kr.Key], kr.Blames...)
	}
	sharedEg, sharedIn := topo.LinkHOPs(0)
	implicated := map[receipt.HOPID]bool{sharedEg: true, sharedIn: true}

	// Every key must blame the shared link, and nothing else.
	for _, key := range keys {
		if len(perKey[key]) == 0 {
			t.Fatalf("key %v: faulty shared link produced no blame", key)
		}
		for _, b := range perKey[key] {
			for _, h := range b.HOPs {
				if !implicated[h] {
					t.Fatalf("key %v: blame leaked to HOP %v outside the shared link: %v", key, h, b)
				}
			}
			if b.Domains[0] != "leaf0" || b.Domains[1] != "hub" {
				t.Fatalf("key %v: blame names domains %v, want [leaf0 hub]", key, b.Domains)
			}
		}
	}
	// Honest disjoint links: zero violations anywhere else.
	for _, kr := range rep.Keys {
		for _, lv := range kr.Links {
			if implicated[lv.Up] && implicated[lv.Down] {
				continue
			}
			if len(lv.Violations) != 0 {
				t.Fatalf("%v/%d: honest link %v-%v has %d violations", kr.Key, kr.Route, lv.Up, lv.Down, len(lv.Violations))
			}
		}
	}

	// Merged, the findings concentrate on one narrow HOP set with every
	// key contributing.
	merged := MergeBlames(perKey)
	if len(merged) == 0 {
		t.Fatal("MergeBlames dropped all findings")
	}
	for _, sb := range merged {
		if len(sb.HOPs) != 2 || !implicated[sb.HOPs[0]] || !implicated[sb.HOPs[1]] {
			t.Fatalf("merged blame implicates %v, want the shared link pair", sb.HOPs)
		}
		if sb.Keys != len(keys) {
			t.Fatalf("merged blame %v credited to %d keys, want %d", sb.Evidence, sb.Keys, len(keys))
		}
		if sb.LinkID != -1 {
			t.Fatalf("merged blame kept a route-local LinkID %d", sb.LinkID)
		}
	}
}

// TestMeshBatchContinuousEquivalence extends the batch/continuous
// acceptance check to a mesh fixture: the same star-topology trace
// (faulty shared link included) replayed one-shot and across rotated
// epochs produces byte-identical per-(key, route) verdicts when the
// per-epoch receipts are sealed as one interval.
func TestMeshBatchContinuousEquivalence(t *testing.T) {
	keys := netsim.TopoKeys(3)
	build := func() *netsim.Topology {
		topo := netsim.StarTopology(57, 4, keys)
		ll, err := lossmodel.FromTargetLoss(0.25, 4, stats.NewRNG(8))
		if err != nil {
			t.Fatal(err)
		}
		topo.Links[0].Loss = ll
		return topo
	}
	tc := topoTraceConfig(keys, 20000, 4e8)
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}

	// Batch arm.
	batchDep := runTopo(t, build(), tc, append([]packet.Packet(nil), pkts...), meshDeployConfig())
	rep, want := onceBytes(t, batchDep, batchDep.Seal)

	// Continuous arm: 8 rotated epochs through an EpochDriver, receipts
	// recorded per epoch and sealed back together as one interval.
	const intervalNS = int64(5e7)
	topo := build()
	epDep, err := NewTopoDeployment(topo, tc.Table(), meshDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := newEpochRecorder()
	driver, err := NewEpochDriver(epDep, intervalNS, rec.sink)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := netsim.NewTopoRunner(topo, tc.Table())
	if err != nil {
		t.Fatal(err)
	}
	pcopy := append([]packet.Packet(nil), pkts...)
	start := 0
	for e := 1; e <= 8; e++ {
		horizon := int64(e) * intervalNS
		end := start
		for end < len(pcopy) && pcopy[end].SentAt < horizon {
			end++
		}
		if _, err := tr.RunSegment(pcopy[start:end], driver.Observers(), horizon); err != nil {
			t.Fatal(err)
		}
		start = end
	}
	if _, err := tr.Run(pcopy[start:], driver.Observers()); err != nil {
		t.Fatal(err)
	}
	driver.Close()

	_, got := onceBytes(t, epDep, rec.sealUnion)
	if !bytes.Equal(got, want) {
		t.Fatalf("mesh verdicts differ between one-shot and rotated epochs:\nbatch:\n%s\ncontinuous:\n%s", want, got)
	}
	if rep.Violations() == 0 {
		t.Fatalf("report carries no shared-link violations — the comparison proved nothing:\n%s", want)
	}
}

// TestMeshRollingVerifier drives the mesh path of the epoch pipeline
// end-to-end: a faulty shared access leg on an ECMP Clos fabric,
// epochs rotated by an EpochDriver straight into a WindowedStore, and
// a RollingVerifier with per-key route layouts (SetKeyLayouts). The
// per-epoch reports must carry one report per (key, route), confine
// every blame to the faulty link's HOP pair, check links shared by a
// key's routes exactly once per key (on the first route), and leave
// the disjoint spine legs violation-free.
func TestMeshRollingVerifier(t *testing.T) {
	keys := netsim.TopoKeys(2)
	topo := netsim.ClosTopology(91, 2, 2, keys)
	ll, err := lossmodel.FromTargetLoss(0.3, 4, stats.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	topo.Links[0].Loss = ll // host0→edge0: shared by key0's two ECMP routes

	tc := topoTraceConfig(keys, 40000, 4e8)
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := NewTopoDeployment(topo, tc.Table(), meshDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	hops := make([]receipt.HOPID, 0, len(dep.Collectors))
	for h := range dep.Collectors {
		hops = append(hops, h)
	}
	win, err := NewWindowedStore(hops, 8)
	if err != nil {
		t.Fatal(err)
	}
	const intervalNS = int64(5e7) // 8 epochs
	driver, err := NewEpochDriver(dep, intervalNS, win.Sink())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := netsim.NewTopoRunner(topo, tc.Table())
	if err != nil {
		t.Fatal(err)
	}
	start := 0
	for e := 1; e <= 8; e++ {
		horizon := int64(e) * intervalNS
		end := start
		for end < len(pkts) && pkts[end].SentAt < horizon {
			end++
		}
		if _, err := tr.RunSegment(pkts[start:end], driver.Observers(), horizon); err != nil {
			t.Fatal(err)
		}
		start = end
	}
	if _, err := tr.Run(pkts[start:], driver.Observers()); err != nil {
		t.Fatal(err)
	}
	driver.Close()
	win.FinishStream()

	rolling := NewRollingVerifier(Layout{}, dep.VerifierConfig(), win, nil, 0.95)
	rolling.SetKeyLayouts(dep.KeyLayouts())
	reps, err := rolling.VerifyReady()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) < 8 {
		t.Fatalf("only %d epochs verified", len(reps))
	}

	faultEg, faultIn := topo.LinkHOPs(0)
	sawRoute1, sawViolation := false, false
	for _, rep := range reps {
		for _, kr := range rep.Keys {
			if kr.Route == 1 {
				sawRoute1 = true
				// The shared access legs were checked on route 0; the
				// route-1 report must cover only its disjoint spine leg.
				for _, lv := range kr.Links {
					if lv.Up == faultEg && lv.Down == faultIn {
						t.Fatalf("epoch %d key %v: shared link re-checked on route 1", rep.Epoch, kr.Key)
					}
				}
			}
			for _, lv := range kr.Links {
				onFault := lv.Up == faultEg && lv.Down == faultIn
				if len(lv.Violations) > 0 {
					sawViolation = true
					if !onFault {
						t.Fatalf("epoch %d key %v route %d: %d violations on honest link %v-%v",
							rep.Epoch, kr.Key, kr.Route, len(lv.Violations), lv.Up, lv.Down)
					}
				}
			}
			for _, b := range kr.Blames {
				for _, h := range b.HOPs {
					if h != faultEg && h != faultIn {
						t.Fatalf("epoch %d: blame leaked to HOP %v: %v", rep.Epoch, h, b)
					}
				}
			}
		}
	}
	if !sawRoute1 {
		t.Fatal("no per-route reports for the ECMP key's second route — SetKeyLayouts not exercised")
	}
	if !sawViolation {
		t.Fatal("faulty shared link produced no per-epoch violations")
	}
}

// TestRouteLayoutPartial: on an ECMP Clos fabric the branch/merge
// domain segments (edge domains, where a key's routes share one HOP
// but not the other) are marked Partial; the spine transit segments
// are not.
func TestRouteLayoutPartial(t *testing.T) {
	keys := netsim.TopoKeys(1)
	topo := netsim.ClosTopology(7, 2, 2, keys)
	dep, err := NewTopoDeployment(topo, topoTraceConfig(keys, 1000, 1e7).Table(), meshDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	layouts := dep.KeyLayouts()[keys[0]]
	if len(layouts) != 2 {
		t.Fatalf("want one layout per ECMP route, got %d", len(layouts))
	}
	for ri, l := range layouts {
		segs := l.DomainSegments()
		if len(segs) != 3 {
			t.Fatalf("route %d: want 3 transit domain segments, got %d", ri, len(segs))
		}
		// edge(src) — branch point, spine — fully on-route, edge(dst) —
		// merge point.
		if !segs[0].Partial || !segs[2].Partial {
			t.Fatalf("route %d: edge segments not marked Partial: %+v", ri, segs)
		}
		if segs[1].Partial {
			t.Fatalf("route %d: spine segment wrongly marked Partial", ri)
		}
	}

	// A domain that is both a merge and a branch point: M's ingress off
	// A→M carries routes {0, 1} of the key and its egress onto M→C
	// routes {0, 65537}. The two sets are the same size and their odd
	// members sit 65 536 apart in the route table — which a signature
	// of the low two index bytes could not tell apart.
	key, filler := keys[0], netsim.TopoKeys(2)[1]
	mesh := &netsim.Topology{Seed: 7}
	for _, name := range []string{"S", "A", "B", "M", "C", "E", "D"} {
		mesh.Domains = append(mesh.Domains, netsim.DomainSpec{Name: name})
	}
	for _, l := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {3, 5}, {4, 6}, {5, 6}} {
		mesh.Links = append(mesh.Links, netsim.TopoLink{From: l[0], To: l[1]})
	}
	viaAC, viaAE, viaBC := []int{0, 2, 4, 6}, []int{0, 2, 5, 7}, []int{1, 3, 4, 6}
	mesh.Routes = append(mesh.Routes, netsim.Route{Key: key, Links: viaAC}, netsim.Route{Key: key, Links: viaAE})
	for len(mesh.Routes) < 1+65536 {
		mesh.Routes = append(mesh.Routes, netsim.Route{Key: filler, Links: viaAC})
	}
	mesh.Routes = append(mesh.Routes, netsim.Route{Key: key, Links: viaBC})
	dep, err = NewTopoDeployment(mesh, topoTraceConfig([]packet.PathKey{key, filler}, 1000, 1e7).Table(), meshDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	segs := dep.RouteLayout(0).DomainSegments()
	if len(segs) != 3 || segs[1].Name != "M" {
		t.Fatalf("route 0 domain segments: %+v", segs)
	}
	if !segs[1].Partial {
		t.Fatal("M merges route 1 in and branches route 65537 out, yet its segment is not Partial")
	}
}

// TestTopoDeploymentNewVerifier is the regression test for the nil
// Path dereference: the single-layout convenience entry points
// (Deployment.NewVerifier / Layout) must work on a
// mesh deployment — resolving the key's first route layout — instead
// of panicking on the nil linear path.
func TestTopoDeploymentNewVerifier(t *testing.T) {
	keys := netsim.TopoKeys(2)
	topo := netsim.StarTopology(41, 4, keys)
	tc := topoTraceConfig(keys, 20000, 1e8)
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	dep := runTopo(t, topo, tc, pkts, meshDeployConfig())

	if l := dep.Layout(); len(l.HOPs) != 0 {
		t.Fatalf("mesh Layout() should be empty, got %d HOPs", len(l.HOPs))
	}
	v := dep.NewVerifier(keys[0]) // must not panic
	lvs := v.VerifyAllLinks()
	if len(lvs) != 2 {
		t.Fatalf("verifier over the key's route: %d link verdicts, want 2", len(lvs))
	}
	var matched int
	for _, lv := range lvs {
		matched += lv.MatchedSamples
	}
	if matched == 0 {
		t.Fatal("mesh NewVerifier matched no samples")
	}
	// An unrouted key yields an empty, harmless verifier.
	if lvs := dep.NewVerifier(netsim.TopoKeys(9)[8]).VerifyAllLinks(); len(lvs) != 0 {
		t.Fatalf("unrouted key produced %d verdicts", len(lvs))
	}
}

// TestLinkDomainsHyphenNames is the regression test for the
// linear-path-era "A-B" name splitting: a domain legitimately named
// with a hyphen ("edge-1") used to be misattributed; the explicit
// UpDomain/DownDomain fields carry the truth, and the name is a label.
func TestLinkDomainsHyphenNames(t *testing.T) {
	l := Layout{
		HOPs: []receipt.HOPID{1, 2},
		Segments: []Segment{{
			Kind:       LinkSegment,
			Up:         1,
			Down:       2,
			Name:       "edge-1-core",
			UpDomain:   "edge-1",
			DownDomain: "core",
		}},
	}
	up, down, ok := l.LinkDomains(0)
	if !ok || up != "edge-1" || down != "core" {
		t.Fatalf("explicit domains ignored: got %q/%q ok=%v", up, down, ok)
	}
	// BlameHOP must resolve the owning domain through the same fields.
	b := BlameHOP(l, 0, EvSignature, 1, 1, "x")
	if len(b.Domains) != 1 || b.Domains[0] != "edge-1" {
		t.Fatalf("BlameHOP domain: got %v, want [edge-1]", b.Domains)
	}
}

// TestCheckLinkSymmetricReorderNoise pins what a link check does with
// missing records the receipts do not explain. The check once absorbed
// a symmetric component (each end recording ~40 packets the other did
// not) as §5.3 reorder noise under a σ/µ-scaled floor; marker-order
// inversions are now derived from the receipts themselves
// (TestCheckLinkMarkerInversion), so nothing is budgeted: symmetric or
// not, every unexplained missing record is flagged, with the counts
// surfaced.
func TestCheckLinkSymmetricReorderNoise(t *testing.T) {
	const (
		markerRate = 0.004
		sampleRate = 0.05
	)
	mu := hashing.ThresholdForRate(markerRate)
	sigma := hashing.ThresholdForRate(sampleRate)
	layout := Layout{
		HOPs: []receipt.HOPID{1, 2},
		Segments: []Segment{{
			Kind: LinkSegment, Up: 1, Down: 2,
			Name: "A-B", UpDomain: "A", DownDomain: "B",
		}},
	}
	key := netsim.TopoKeys(1)[0]
	pid := receipt.PathID{Key: key, MaxDiffNS: 3_000_000}
	// All PktIDs are markers (digest above µ), so the verifier expects
	// every record at both ends.
	id := func(i int) uint64 { return ^uint64(0) - uint64(i) }
	build := func(extraUp, extraDown int) *Verifier {
		v := NewVerifierFor(layout, key)
		v.SetConfig(VerifierConfig{
			MarkerThreshold:  mu,
			SampleThresholds: map[receipt.HOPID]uint64{1: sigma, 2: sigma},
		})
		var up, down []receipt.SampleRecord
		for i := 0; i < 500; i++ { // matched population
			up = append(up, receipt.SampleRecord{PktID: id(i), TimeNS: int64(i)})
			down = append(down, receipt.SampleRecord{PktID: id(i), TimeNS: int64(i)})
		}
		for i := 0; i < extraUp; i++ {
			up = append(up, receipt.SampleRecord{PktID: id(1000 + i), TimeNS: int64(1000 + i)})
		}
		for i := 0; i < extraDown; i++ {
			down = append(down, receipt.SampleRecord{PktID: id(2000 + i), TimeNS: int64(2000 + i)})
		}
		v.AddSampleReceipt(1, receipt.SampleReceipt{Path: pid, Samples: up})
		v.AddSampleReceipt(2, receipt.SampleReceipt{Path: pid, Samples: down})
		return v
	}

	// Symmetric 40/40 with no marker inversion in the receipts: no
	// budget covers it.
	lv := build(40, 40).CheckLink(1, 2)
	if lv.Consistent() {
		t.Fatal("unexplained symmetric divergence was absorbed as noise")
	}
	if lv.MissingDown != 40 || lv.MissingUp != 40 {
		t.Fatalf("missing counts not surfaced: %+v", lv)
	}
	// Asymmetric 80/0: suppression-shaped, flagged.
	if lv := build(80, 0).CheckLink(1, 2); lv.Consistent() {
		t.Fatal("asymmetric missing records were absorbed as noise")
	}
	// Symmetric and huge (80/80): flagged.
	if lv := build(80, 80).CheckLink(1, 2); lv.Consistent() {
		t.Fatal("oversized symmetric divergence was absorbed as noise")
	}
}

// TestMeshBlameIngestionOrderInvariance: AttributeBlame over a mesh is
// invariant under the order receipts arrive across HOPs. Per-HOP
// streams keep their sealed order (the dissemination cursor guarantees
// that); the interleaving across HOPs is adversarially shuffled with
// fixed seeds.
func TestMeshBlameIngestionOrderInvariance(t *testing.T) {
	keys := netsim.TopoKeys(3)
	topo := netsim.StarTopology(13, 4, keys)
	ll, err := lossmodel.FromTargetLoss(0.25, 4, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	topo.Links[0].Loss = ll
	tc := topoTraceConfig(keys, 20000, 2e8)
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	dep := runTopo(t, topo, tc, pkts, meshDeployConfig())

	// Per-HOP receipt streams in sealed order.
	type hopStream struct {
		hop     receipt.HOPID
		samples []receipt.SampleReceipt
		aggs    []receipt.AggReceipt
	}
	var streams []hopStream
	for hop, proc := range dep.Processors {
		streams = append(streams, hopStream{hop: hop, samples: proc.CombinedSamples(), aggs: proc.Aggs})
	}

	// fingerprint feeds each (key, route) verifier the interleaving
	// shuffle draws and renders the merged blame and every link verdict.
	fingerprint := func(shuffle uint64) string {
		perKey := make(map[packet.PathKey][]Blame)
		var b strings.Builder
		for _, key := range dep.Topo.Keys() {
			for ri, layout := range dep.KeyLayouts()[key] {
				v := NewVerifierFor(layout, key)
				v.SetConfig(dep.VerifierConfig())
				rng := stats.NewRNG(1000 + shuffle)
				// Random interleaving across HOPs, order within a HOP preserved.
				pos := make([]int, len(streams)) // next sample receipt per stream
				aggDone := make([]bool, len(streams))
				remaining := 0
				for _, s := range streams {
					remaining += len(s.samples) + 1 // +1 for the agg batch
				}
				for remaining > 0 {
					i := rng.Intn(len(streams))
					s := &streams[i]
					if pos[i] < len(s.samples) {
						v.AddSampleReceipt(s.hop, s.samples[pos[i]])
						pos[i]++
						remaining--
					} else if !aggDone[i] {
						v.AddAggReceipts(s.hop, s.aggs)
						aggDone[i] = true
						remaining--
					}
				}
				lvs := v.VerifyAllLinks()
				perKey[key] = append(perKey[key], AttributeBlame(layout, 0, lvs)...)
				for _, lv := range lvs {
					fmt.Fprintf(&b, "%v/%d %+v\n", key, ri, lv)
				}
			}
		}
		for _, sb := range MergeBlames(perKey) {
			fmt.Fprintf(&b, "%v keys=%d\n", sb.Blame, sb.Keys)
		}
		return b.String()
	}

	want := fingerprint(0)
	if !strings.Contains(want, "missing-receipt") {
		t.Fatalf("fingerprint carries no shared-link findings:\n%s", want)
	}
	for shuffle := uint64(1); shuffle < 5; shuffle++ {
		if got := fingerprint(shuffle); got != want {
			t.Fatalf("shuffle %d: blame attribution depends on ingestion order:\nwant:\n%s\ngot:\n%s", shuffle, want, got)
		}
	}
}

// TestMeshVerifyFailsOnLowestKey: when the checks fail on several keys
// of an epoch, VerifyEpoch returns the error of the lowest-numbered
// one, whichever worker checked it — at every width the error a serial
// pass stops at. An out-of-range quantile fails the delay estimate of
// every key with delay samples; the two lowest keys send too little to
// have any, so the first key to fail is not the first of worker 0.
func TestMeshVerifyFailsOnLowestKey(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	keys := netsim.WideKeys(24)
	topo := netsim.ClosTopology(91, 2, 2, keys)
	tc := topoTraceConfig(keys, 4000, 2e8)
	for i := range 2 {
		tc.Paths[i].RatePPS = 10
	}
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := NewTopoDeployment(topo, tc.Table(), meshDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	win, err := NewWindowedStore(dep.HOPs(), 8)
	if err != nil {
		t.Fatal(err)
	}
	driver, err := NewEpochDriver(dep, int64(1e9), win.Sink())
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
	win.FinishStream()
	verify := func(quantiles []float64) (EpochReport, error) {
		rolling := NewRollingVerifier(Layout{}, dep.VerifierConfig(), win, quantiles, 0.95)
		rolling.SetKeyLayouts(dep.KeyLayouts())
		return rolling.VerifyEpoch(0)
	}
	// A failed epoch is not marked verified, so every width verifies the
	// same epoch afresh.
	var want error
	for _, procs := range []int{1, 2, 3, 4} {
		runtime.GOMAXPROCS(procs)
		_, err := verify([]float64{1.5})
		switch {
		case err == nil:
			t.Fatalf("GOMAXPROCS %d: an out-of-range quantile verified", procs)
		case want == nil:
			want = err
		case !reflect.DeepEqual(err, want):
			t.Fatalf("GOMAXPROCS %d: %v, want the serial pass's %v", procs, err, want)
		}
	}
	rep, err := verify(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, kr := range rep.Keys {
		if kr.Key != rep.Keys[0].Key {
			break
		}
		for _, dr := range kr.Domains {
			if dr.DelaySamples > 0 {
				t.Fatalf("the first key has %d delay samples: it fails first at every width", dr.DelaySamples)
			}
		}
	}
}
