package engine_test

import (
	"context"
	"math"
	"testing"

	"vpm/internal/core"
	"vpm/internal/engine"
	"vpm/internal/hashing"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/trace"
)

// TestCutTimestampTieIsNotALie replays the smallest stream that shows
// a false count-mismatch found on the Clos mesh (clos-zipf, seeds 38
// and 65): at one end of an honest link a cutting point and a packet
// carry the same timestamp, the packet after the cut, and the other end
// sees that packet before the cut. A cut's AggTrans window takes the
// packets within J before the cut and those strictly later than it, so
// the tying end's window holds neither the packet nor anything saying
// where it went; the patch-up cannot migrate it, and the two joined
// pairs around the cut each differ by one packet, in opposite
// directions. Every ±1 view around the cut judged both, so one tie
// blamed the link three epochs running.
//
// The stream is one key over a two-domain path, both HOPs fed through
// the engine's Sim seam from a recorded list: the downstream HOP sees
// every packet 1 ms after the upstream one, except around two cuts. At
// the first the upstream HOP ties (seed 38's shape: downstream counts
// one more before the cut), at the second the downstream HOP does
// (seed 65's: upstream counts one more). As at those seeds, each cut
// has a cut of its epoch before it and two after it, so every view
// that judges one of its pairs judges the other too. The link must come
// out clean in every epoch.
func TestCutTimestampTieIsNotALie(t *testing.T) {
	const (
		intervalNS = int64(50_000_000)
		epochs     = 4
		gapNS      = int64(20_000)
		linkNS     = int64(1_000_000)
	)
	key := netsim.WideKeys(1)[0]
	table := packet.NewTable([]packet.Prefix{key.Src, key.Dst})
	dc := core.DefaultDeployConfig()
	dc.MarkerRate, dc.Default.AggRate = 0.01, 0.005 // the Clos bench's rates
	dep, err := core.NewDeployment(netsim.LinearPath(3, 2), table, dc)
	if err != nil {
		t.Fatal(err)
	}
	hops := dep.HOPs()
	if len(hops) != 2 {
		t.Fatalf("a two-domain path has HOPs %v, want one link's two ends", hops)
	}
	delta := hashing.ThresholdForRate(dc.Default.AggRate)

	pkt := packet.Packet{Src: key.Src.Addr, Dst: key.Dst.Addr}
	perEpoch := int(intervalNS / gapNS)
	n := epochs * perEpoch
	up := make([]netsim.Observation, n)
	for i := range up {
		up[i] = netsim.Observation{Pkt: &pkt, Digest: hashing.Mix64(uint64(i) + 1), TimeNS: int64(i) * gapNS}
	}
	isCut := func(i int) bool { return up[i].Digest > delta }
	// tieCut returns a cut of the epoch with a cut of the epoch before
	// it and two after it, between two packets that are not cuts.
	tieCut := func(epoch int) int {
		var cuts []int
		for i := epoch * perEpoch; i < (epoch+1)*perEpoch; i++ {
			if isCut(i) {
				cuts = append(cuts, i)
			}
		}
		for k := 1; k+2 < len(cuts); k++ {
			if c := cuts[k]; !isCut(c-1) && !isCut(c+1) {
				return c
			}
		}
		t.Fatalf("epoch %d has no cut with a cut before it and two after it", epoch)
		return 0
	}
	down := make([]netsim.Observation, n)
	for i := range up {
		down[i] = up[i]
		down[i].TimeNS += linkNS
	}
	// Upstream tie: the packet after the cut takes the cut's time
	// upstream and comes just before the cut downstream.
	c := tieCut(1)
	up[c+1].TimeNS = up[c].TimeNS
	down[c], down[c+1] = down[c+1], down[c]
	down[c].TimeNS = down[c+1].TimeNS - gapNS/5
	// Downstream tie: the packet before the cut comes right after it,
	// at its time, downstream.
	c = tieCut(2)
	down[c-1], down[c] = down[c], down[c-1]
	down[c-1].TimeNS = down[c-2].TimeNS + gapNS/5
	down[c].TimeNS = down[c-1].TimeNS

	streams := map[receipt.HOPID][]netsim.Observation{hops[0]: up, hops[1]: down}
	sim := func(_ []packet.Packet, obs map[receipt.HOPID]netsim.Observer, horizonNS int64) error {
		for h, s := range streams {
			k := 0
			for k < len(s) && s[k].TimeNS < horizonNS {
				k++
			}
			if k > 0 {
				netsim.Deliver(obs[h], s[:k])
			}
			streams[h] = s[k:]
		}
		return nil
	}
	segment := 0
	src := func() ([]packet.Packet, int64, bool) {
		if segment == epochs {
			return nil, 0, false
		}
		segment++
		return nil, int64(segment) * intervalNS, true
	}

	ver, err := engine.NewVerify(engine.Store{HOPs: hops, Retention: 2},
		engine.Checks{Config: dep.VerifierConfig(), Layout: dep.Layout()})
	if err != nil {
		t.Fatal(err)
	}
	var reports []core.EpochReport
	ver.OnEpoch = func(rep core.EpochReport, _ core.WindowStats) { reports = append(reports, rep) }
	col, err := engine.NewCollect(dep, hops, intervalNS, 0, ver.Window.Sink())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Run(context.Background(), src, sim, ver); err != nil {
		t.Fatal(err)
	}
	if len(reports) != int(col.Terminal)+1 || len(ver.Findings) != 0 {
		t.Fatalf("%d reports for terminal epoch %d, %d findings", len(reports), col.Terminal, len(ver.Findings))
	}
	for _, rep := range reports {
		for _, kr := range rep.Keys {
			for _, lv := range kr.Links {
				for _, v := range lv.Violations {
					t.Errorf("epoch %d: honest link %v-%v: %v %s", rep.Epoch, lv.Up, lv.Down, v.Kind, v.Detail)
				}
			}
		}
	}
}

// FuzzHonestIsSilent searches for the verifier's own contradictions:
// an honest network — no adversary mounted, every link's jitter inside
// its advertised MaxDiff, no loss — run through the engine must come
// out without a single Violation on any link of any key in any epoch,
// and without a finding. The input spans the topology family (the
// paper's Fig1 chain, or the benchmarks' Clos(8,4) fabric with ECMP),
// the seed, the packet rate, the key count and the Zipf skew of the
// traffic across keys, link and domain reorder jitter, the marker and
// aggregation rates, and the epoch interval; each is folded into a
// range the run covers in well under a second.
//
// The checked-in corpus starts from the two clos-zipf seeds, 38 and 65,
// at which a cut's timestamp tie once blamed an honest link: the
// benchmark's fabric, packet rate, skew, marker and aggregation rates
// and epoch, over its 256 hottest keys instead of 4096. Beside them,
// fig1_seed_1_marker_swaps is the Fig1 chain at 200 kpps with 0.1 ms of
// link jitter, 1 % markers and 50 ms epochs, where packets and markers
// that swapped order across a link, or a marker that overtook two, once
// read as missing records on the honest link HOP7–HOP8.
//
// The seeds added below are a deterministic grid over the axes where
// missed records hide: both families at 200 kpps with 50 ms epochs —
// the Fig1 chain's one key, and 256 Zipf keys on the Clos fabric, whose
// sparse keys sit longer than an epoch before their deciding marker —
// without jitter and with the most the search allows, at marker rates
// from the lowest to the highest.
func FuzzHonestIsSilent(f *testing.F) {
	// vpm-node's defaults on the Fig1 chain: one key at 100 kpps.
	f.Add(uint8(0), uint64(1), uint32(100_000), uint8(0), 0.0, uint32(100_000), uint32(200_000), 0.001, 0.00001, uint16(250))
	for family := range uint8(2) {
		keys, zipf := uint8(0), 0.0
		if family == 1 {
			keys, zipf = 255, 1.01
		}
		for _, jitter := range [][2]uint32{{0, 0}, {1_500_000, 1_000_000}} {
			for _, markers := range []float64{0.0005, 0.002, 0.01, 0.05} {
				f.Add(family, uint64(1), uint32(200_000), keys, zipf, jitter[0], jitter[1], markers, 0.005, uint16(50))
			}
		}
	}
	f.Fuzz(func(t *testing.T, family uint8, seed uint64, rate uint32, keys uint8, zipf float64,
		linkJitterNS, domainJitterNS uint32, markerRate, aggRate float64, intervalMS uint16) {
		w := honestWorld{
			clos:           family%2 == 1,
			seed:           seed,
			ratePPS:        float64(wrap(uint64(rate), 1_000, 200_000)),
			keys:           1 + int(keys),
			zipf:           fold(zipf, 0, 2, 1),
			linkJitterNS:   int64(wrap(uint64(linkJitterNS), 0, 1_500_000)),
			domainJitterNS: int64(wrap(uint64(domainJitterNS), 0, 1_000_000)),
			markerRate:     fold(markerRate, 0.0005, 0.05, 0.01),
			aggRate:        fold(aggRate, 0.00001, 0.05, 0.005),
			intervalNS:     int64(wrap(uint64(intervalMS), 20, 250)) * 1_000_000,
		}
		w.run(t)
	})
}

// wrap keeps v if it lies in [lo, hi] and wraps it into the range
// otherwise.
func wrap(v, lo, hi uint64) uint64 {
	if lo <= v && v <= hi {
		return v
	}
	return lo + v%(hi-lo+1)
}

// fold is wrap for floats: x if it lies in [lo, hi], its magnitude
// wrapped into the range otherwise, and def for NaN and infinities.
func fold(x, lo, hi, def float64) float64 {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 0):
		return def
	case lo <= x && x <= hi:
		return x
	}
	return lo + math.Mod(math.Abs(x), hi-lo)
}

// honestWorld is one point of FuzzHonestIsSilent's input space.
type honestWorld struct {
	clos                         bool
	seed                         uint64
	ratePPS                      float64
	keys                         int
	zipf                         float64
	linkJitterNS, domainJitterNS int64
	markerRate, aggRate          float64
	intervalNS                   int64
}

// honestEpochs is how many epochs every run simulates.
const honestEpochs = 4

// run simulates the world through the engine, publishing straight into
// the verifier's window, and fails on any violation or finding.
func (w honestWorld) run(t *testing.T) {
	t.Helper()
	keys := netsim.WideKeys(w.keys)
	tc := trace.Config{Seed: w.seed + 7000, DurationNS: honestEpochs * w.intervalNS}
	weights, sum := make([]float64, len(keys)), 0.0
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -w.zipf)
		sum += weights[r]
	}
	for r, k := range keys {
		spec := trace.DefaultPath(w.ratePPS * weights[r] / sum)
		spec.SrcPrefix, spec.DstPrefix = k.Src, k.Dst
		tc.Paths = append(tc.Paths, spec)
	}
	gen, err := trace.NewGenerator(tc)
	if err != nil {
		t.Fatal(err)
	}
	topo := netsim.ClosTopology(w.seed+5000, 8, 4, keys)
	if !w.clos {
		if topo, err = netsim.Fig1Path(w.seed + 1000).Topology(); err != nil {
			t.Fatal(err)
		}
	}
	for i := range topo.Links {
		topo.Links[i].JitterNS = w.linkJitterNS
	}
	for i := range topo.Domains {
		topo.Domains[i].ReorderJitterNS = w.domainJitterNS
	}
	dc := core.DefaultDeployConfig()
	dc.MarkerRate, dc.Default.AggRate = w.markerRate, w.aggRate
	dep, err := core.NewTopoDeployment(topo, tc.Table(), dc)
	if err != nil {
		t.Fatal(err)
	}
	checks := engine.Checks{Config: dep.VerifierConfig(), Layout: dep.Layout()}
	if w.clos {
		checks = engine.Checks{Config: dep.VerifierConfig(), KeyLayouts: dep.KeyLayouts()}
	}
	hops := dep.HOPs()
	ver, err := engine.NewVerify(engine.Store{HOPs: hops, Retention: 2}, checks)
	if err != nil {
		t.Fatal(err)
	}
	violations := 0
	ver.OnEpoch = func(rep core.EpochReport, _ core.WindowStats) {
		for _, kr := range rep.Keys {
			for _, lv := range kr.Links {
				for _, v := range lv.Violations {
					if violations++; violations <= 5 {
						t.Errorf("%+v: epoch %d key %v route %d: honest link %v-%v: %v %s",
							w, rep.Epoch, kr.Key, kr.Route, lv.Up, lv.Down, v.Kind, v.Detail)
					}
				}
			}
		}
	}
	col, err := engine.NewCollect(dep, hops, w.intervalNS, 0, ver.Window.Sink())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := engine.NewSim(dep.Topo, dep.Table, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Run(context.Background(), engine.EpochSource(gen, w.intervalNS, honestEpochs, nil), sim, ver); err != nil {
		t.Fatal(err)
	}
	if ver.Epochs != int(col.Terminal)+1 || len(ver.Findings) != 0 {
		t.Fatalf("%+v: %d epochs verified of %d, findings %v", w, ver.Epochs, col.Terminal+1, ver.Findings)
	}
	if violations > 0 {
		t.Fatalf("%+v: %d violations on honest links", w, violations)
	}
}
