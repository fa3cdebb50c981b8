package core

import (
	"reflect"
	"slices"
	"testing"

	"vpm/internal/hashing"
	"vpm/internal/netsim"
	"vpm/internal/receipt"
	"vpm/internal/sampling"
	"vpm/internal/stats"
)

// streamLink is a two-HOP link (HOP 1 upstream of HOP 2, MaxDiff
// inversionMaxDiffNS) whose ends run real Algorithm 1 samplers over
// up and down — each end's observations, PktID and local time, in its
// own arrival order. lie, when set, rewrites what one end reports.
type streamLink struct {
	up, down []receipt.SampleRecord
	lie      func(hop receipt.HOPID, recs []receipt.SampleRecord) []receipt.SampleRecord
}

const inversionMaxDiffNS = 3_000_000

// streamCfg is streamLink's rates: 0.4 % markers, 5 % samples.
var streamCfg = sampling.Config{MarkerRate: 0.004, SampleRate: 0.05}

// epochs returns what each end seals in each of n epochs of intervalNS
// on its own clock: the records its sampler decided by the epoch's end.
func (l streamLink) epochs(n int, intervalNS int64) map[receipt.HOPID][][]receipt.SampleRecord {
	out := make(map[receipt.HOPID][][]receipt.SampleRecord)
	for hop, obs := range map[receipt.HOPID][]receipt.SampleRecord{1: l.up, 2: l.down} {
		s := sampling.New(streamCfg)
		for e := range n {
			for len(obs) > 0 && obs[0].TimeNS < int64(e+1)*intervalNS {
				s.Observe(obs[0].PktID, obs[0].TimeNS)
				obs = obs[1:]
			}
			recs := s.Take()
			if l.lie != nil {
				recs = l.lie(hop, recs)
			}
			out[hop] = append(out[hop], recs)
		}
	}
	return out
}

func (l streamLink) config() VerifierConfig {
	sigma := hashing.ThresholdForRate(streamCfg.SampleRate)
	return VerifierConfig{
		MarkerThreshold:  hashing.ThresholdForRate(streamCfg.MarkerRate),
		SampleThresholds: map[receipt.HOPID]uint64{1: sigma, 2: sigma},
	}
}

// verifier hands every record either end decided to one verifier: the
// whole stream in view.
func (l streamLink) verifier() *Verifier {
	key := netsim.TopoKeys(1)[0]
	v := NewVerifierFor(Layout{HOPs: []receipt.HOPID{1, 2}}, key)
	v.SetConfig(l.config())
	for hop, eps := range l.epochs(1, 1<<62) {
		v.AddSampleReceipt(hop, receipt.SampleReceipt{Path: receipt.PathID{Key: key, MaxDiffNS: inversionMaxDiffNS}, Samples: eps[0]})
	}
	return v
}

// rolling seals n epochs of intervalNS into a windowed store and
// returns the link's verdict in each epoch report of a rolling
// verifier, whose views span the neighbouring epochs only.
func (l streamLink) rolling(t *testing.T, n int, intervalNS int64) []LinkVerdict {
	t.Helper()
	key := netsim.TopoKeys(1)[0]
	pid := receipt.PathID{Key: key, MaxDiffNS: inversionMaxDiffNS}
	hops := []receipt.HOPID{1, 2}
	win, err := NewWindowedStore(hops, 2)
	if err != nil {
		t.Fatal(err)
	}
	sealed, sink := l.epochs(n, intervalNS), win.Sink()
	for e := range n {
		for _, hop := range hops {
			var rs []receipt.SampleReceipt
			if recs := sealed[hop][e]; len(recs) > 0 {
				rs = []receipt.SampleReceipt{{Path: pid, Samples: recs}}
			}
			sink(hop, EpochID(e), rs, nil)
		}
	}
	win.FinishStream()
	layout := Layout{HOPs: hops, Segments: []Segment{{
		Kind: LinkSegment, Up: 1, Down: 2, Name: "A-B", UpDomain: "A", DownDomain: "B",
	}}}
	reps, err := NewRollingVerifier(layout, l.config(), win, nil, 0).VerifyReady()
	if err != nil {
		t.Fatal(err)
	}
	var out []LinkVerdict
	for _, rep := range reps {
		for _, kr := range rep.Keys {
			out = append(out, kr.Links...)
		}
	}
	return out
}

// drop is the lie of a HOP, liar, that leaves packets ids out of its
// receipt.
func drop(liar receipt.HOPID, ids ...uint64) func(receipt.HOPID, []receipt.SampleRecord) []receipt.SampleRecord {
	return func(hop receipt.HOPID, recs []receipt.SampleRecord) []receipt.SampleRecord {
		if hop != liar {
			return recs
		}
		return slices.DeleteFunc(recs, func(r receipt.SampleRecord) bool { return slices.Contains(ids, r.PktID) })
	}
}

// streamIDs draws packet digests from a fixed seed: markers under
// streamCfg's µ, and non-markers whose sampling decision under given
// markers is chosen.
type streamIDs struct{ rng *stats.RNG }

func (g streamIDs) marker() uint64 {
	mu := hashing.ThresholdForRate(streamCfg.MarkerRate)
	for {
		if id := g.rng.Uint64(); hashing.Exceeds(id, mu) {
			return id
		}
	}
}

// packet returns a non-marker that SampleFcn selects under each of
// sampledBy and under none of skippedBy.
func (g streamIDs) packet(sampledBy, skippedBy []uint64) uint64 {
	mu := hashing.ThresholdForRate(streamCfg.MarkerRate)
	sigma := hashing.ThresholdForRate(streamCfg.SampleRate)
	selects := func(id, m uint64) bool { return hashing.Exceeds(hashing.SampleFcn(id, m), sigma) }
	for {
		id := g.rng.Uint64()
		if !hashing.Exceeds(id, mu) &&
			!slices.ContainsFunc(sampledBy, func(m uint64) bool { return !selects(id, m) }) &&
			!slices.ContainsFunc(skippedBy, func(m uint64) bool { return selects(id, m) }) {
			return id
		}
	}
}

// inversionLink is the §5.3 worst case on a two-HOP link, run through
// real Algorithm 1 samplers. Both HOPs see two long marker-free runs
// (temporary buffers holding ~100 σ-samples' worth of packets each).
// The first is closed by the same marker at both ends. The second is
// closed upstream by marker M, followed gapNS later by marker N;
// downstream the two markers arrive in the opposite order, so it closes
// that buffer with N, and the two honest ends key every decision in it
// differently.
type inversionLink struct {
	gapNS     int64 // upstream spacing of the two closing markers
	spacingNS int64 // packet spacing within a run; 0 means 1 µs
	suppress  int   // first-buffer records the downstream HOP drops from its receipt
	hideNext  bool  // the downstream HOP omits marker N from its receipt
}

func (c inversionLink) build(t *testing.T) *Verifier {
	t.Helper()
	mu := hashing.ThresholdForRate(streamCfg.MarkerRate)
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

	var l streamLink
	at := func(id uint64, tNS int64) receipt.SampleRecord { return receipt.SampleRecord{PktID: id, TimeNS: tNS} }
	observe := func(id uint64, tNS int64) {
		l.up, l.down = append(l.up, at(id, tNS)), append(l.down, at(id, tNS+delayNS))
	}
	spacing := c.spacingNS
	if spacing == 0 {
		spacing = 1000
	}
	tNS := int64(0)
	for i, id := range others[:2*run] {
		if i == run {
			tNS += spacing
			observe(first, tNS)
		}
		tNS += spacing
		observe(id, tNS)
	}
	tM, tN := tNS+spacing, tNS+spacing+c.gapNS
	l.up = append(l.up, at(m, tM), at(n, tN))
	l.down = append(l.down, at(n, tM+delayNS), at(m, tN+delayNS)) // the markers trade places in flight
	observe(last, tN+10*inversionMaxDiffNS)

	suppress := c.suppress
	l.lie = func(hop receipt.HOPID, recs []receipt.SampleRecord) []receipt.SampleRecord {
		return slices.DeleteFunc(recs, func(rec receipt.SampleRecord) bool {
			switch {
			case hop != 2:
				return false
			case c.hideNext && rec.PktID == n:
				return true
			case suppress > 0 && !hashing.Exceeds(rec.PktID, mu):
				suppress--
				return true
			}
			return false
		})
	}
	return l.verifier()
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
	// The same inversion does not cover for suppression. With packets
	// 4 µs apart each run lasts 8 ms, so the first run's earliest
	// records lie more than MaxDiff before its marker, which decided
	// them at both ends whatever the link's delay.
	lv = inversionLink{gapNS: gap, spacingNS: 4000, suppress: 30}.build(t).CheckLink(1, 2)
	if lv.Consistent() || lv.MissingDown != 30 || lv.MissingUp != 0 {
		t.Fatalf("30 suppressed records behind an inversion: %d missing downstream, %d upstream, %v", lv.MissingDown, lv.MissingUp, lv)
	}
	// Markers farther apart than MaxDiff cannot have been reordered by
	// an honest link: each swapped marker crossed it outside [0,
	// MaxDiff] (+7 ms and −5 ms), and the buffers they decided are left
	// to those violations.
	lv = inversionLink{gapNS: 2 * inversionMaxDiffNS}.build(t).CheckLink(1, 2)
	if len(lv.Violations) != 2 || lv.MissingDown != 0 || lv.MissingUp != 0 {
		t.Fatalf("inversion across %d ns: %d violations, %d missing downstream, %d upstream, want the two markers' delay bounds",
			2*inversionMaxDiffNS, len(lv.Violations), lv.MissingDown, lv.MissingUp)
	}
	for _, x := range lv.Violations {
		if x.Kind != receipt.DelayBound || !hashing.Exceeds(x.PktID, v.cfg.MarkerThreshold) {
			t.Fatalf("inversion across %d ns: %v %s, want a swapped marker's delay bound", 2*inversionMaxDiffNS, x.Kind, x.Detail)
		}
	}
	// A deciding marker only one end reported is never honoured.
	lv = inversionLink{gapNS: gap, hideNext: true}.build(t).CheckLink(1, 2)
	if lv.Consistent() || lv.MissingDown == 0 {
		t.Fatalf("unreported deciding marker honoured: %d missing downstream, %v", lv.MissingDown, lv)
	}
}

// TestCheckLinkFeasibleDecidingMarkers pins the missing-record rule's
// clauses on whole-stream link checks (times in µs, 1 ms link delay,
// MaxDiff 3 ms). An honest link whose packets and markers change order
// within MaxDiff is silent; a record the receipts do not excuse is
// missing, however the liar bends its markers' timestamps.
func TestCheckLinkFeasibleDecidingMarkers(t *testing.T) {
	ids := streamIDs{stats.NewRNG(52)}
	k, m := ids.marker(), ids.marker()
	us := func(id uint64, t int64) receipt.SampleRecord {
		return receipt.SampleRecord{PktID: id, TimeNS: t * 1000}
	}

	t.Run("packet-marker-swap", func(t *testing.T) {
		// p and q cross the link behind K: upstream decided them under
		// K, downstream under M.
		p := ids.packet([]uint64{k}, []uint64{m})
		q := ids.packet([]uint64{m}, []uint64{k})
		lv := streamLink{
			up:   []receipt.SampleRecord{us(p, 10_000), us(q, 10_005), us(k, 10_010), us(m, 20_000)},
			down: []receipt.SampleRecord{us(k, 11_010), us(p, 11_100), us(q, 11_105), us(m, 21_000)},
		}.verifier().CheckLink(1, 2)
		if !lv.Consistent() || lv.MatchedSamples != 2 {
			t.Fatalf("honest packet/marker swap: %d matched, %v", lv.MatchedSamples, lv.Violations)
		}
	})
	t.Run("marker-overtakes-two", func(t *testing.T) {
		// M3 overtakes M1 and M2: upstream decided p and q under M1,
		// downstream under M3.
		m1, m2, m3 := ids.marker(), ids.marker(), ids.marker()
		p := ids.packet([]uint64{m1}, []uint64{m3})
		q := ids.packet([]uint64{m3}, []uint64{m1})
		lv := streamLink{
			up:   []receipt.SampleRecord{us(p, 10_000), us(q, 10_005), us(m1, 10_010), us(m2, 10_020), us(m3, 10_030), us(m, 20_000)},
			down: []receipt.SampleRecord{us(p, 10_900), us(q, 10_905), us(m3, 10_950), us(m1, 11_010), us(m2, 11_020), us(m, 21_000)},
		}.verifier().CheckLink(1, 2)
		if !lv.Consistent() || lv.MatchedSamples != 4 {
			t.Fatalf("honest marker overtaking two: %d matched, %v", lv.MatchedSamples, lv.Violations)
		}
	})

	// Five packets 1 ms apart, more than MaxDiff before M, which decided
	// them at both ends; the downstream HOP drops their records.
	n := ids.marker()
	var pkts []uint64
	for range 5 {
		pkts = append(pkts, ids.packet([]uint64{m}, []uint64{n}))
	}
	suppressed := func(shiftUS int64) streamLink {
		var l streamLink
		for i, p := range pkts {
			l.up = append(l.up, us(p, 10_000+int64(i)*1000))
			l.down = append(l.down, us(p, 11_000+int64(i)*1000+shiftUS))
		}
		l.up = append(l.up, us(m, 18_000), us(n, 30_000))
		l.down = append(l.down, us(m, 19_000+shiftUS), us(n, 31_000+shiftUS))
		l.lie = drop(2, pkts...)
		return l
	}
	t.Run("backdated-marker", func(t *testing.T) {
		// N, which crossed at 30 ms, is reported at 11.5 ms, inside the
		// first two packets' windows, where it would have decided them
		// instead of M: its crossing is infeasible, so it excuses
		// nothing.
		l := suppressed(0)
		lie := l.lie
		l.lie = func(hop receipt.HOPID, recs []receipt.SampleRecord) []receipt.SampleRecord {
			recs = lie(hop, recs)
			for i := range recs {
				if hop == 2 && recs[i].PktID == n {
					recs[i].TimeNS = 11_500_000
				}
			}
			return recs
		}
		if lv := l.verifier().CheckLink(1, 2); lv.MissingDown != len(pkts) {
			t.Fatalf("backdated marker excused suppression: %d of %d records missing, %v", lv.MissingDown, len(pkts), lv.Violations)
		}
	})
	t.Run("hidden-marker", func(t *testing.T) {
		// The downstream HOP drops M too, so that N would decide the
		// packets: a marker only one end reported excuses nothing.
		l := suppressed(0)
		l.lie = drop(2, append([]uint64{m}, pkts...)...)
		if lv := l.verifier().CheckLink(1, 2); lv.MissingDown != len(pkts)+1 {
			t.Fatalf("hidden deciding marker excused suppression: %d of %d records missing, %v", lv.MissingDown, len(pkts)+1, lv.Violations)
		}
	})
	t.Run("clock-set-back", func(t *testing.T) {
		// A downstream clock 5 ms behind makes every crossing
		// infeasible, so no record is expected of that end; the
		// two-sided timestamp bound flags it instead.
		lv := suppressed(-5000).verifier().CheckLink(1, 2)
		if !slices.ContainsFunc(lv.Violations, func(x receipt.Inconsistency) bool { return x.Kind == receipt.DelayBound }) {
			t.Fatalf("clock set back 5 ms escaped the check: %v", lv)
		}
	})
}

// TestCheckLinkViewEdge: an epoch's view holds the neighbouring epochs
// only, while a sparse key's sample may sit far longer than an epoch
// before its deciding marker. A marker that decided it at the other end
// may then lie outside the view, so a record whose feasible window the
// other end's view does not reach back to is not expected — unless the
// view reaches the stream head, or holds a marker before the window.
func TestCheckLinkViewEdge(t *testing.T) {
	const intervalNS, epochs = 50_000_000, 8
	ids := streamIDs{stats.NewRNG(53)}
	k, m := ids.marker(), ids.marker()
	ms := func(id uint64, t float64) receipt.SampleRecord {
		return receipt.SampleRecord{PktID: id, TimeNS: int64(t * 1e6)}
	}

	t.Run("sparse-key", func(t *testing.T) {
		// p crossed the link behind K, which decided it upstream in
		// epoch 0; downstream M decided it, sampled, in epoch 6, whose
		// view starts at epoch 5.
		p := ids.packet([]uint64{m}, []uint64{k})
		lvs := streamLink{
			up:   []receipt.SampleRecord{ms(p, 10), ms(k, 10.01), ms(m, 310)},
			down: []receipt.SampleRecord{ms(k, 11.01), ms(p, 11.1), ms(m, 311)},
		}.rolling(t, epochs, intervalNS)
		for _, lv := range lvs {
			if !lv.Consistent() {
				t.Fatalf("honest sparse key blamed at the view edge: %v", lv.Violations)
			}
		}
	})
	t.Run("dense-twin", func(t *testing.T) {
		// The same shape with a marker J in view before p, which the
		// upstream HOP drops from its receipt.
		j := ids.marker()
		p := ids.packet([]uint64{m}, nil)
		lvs := streamLink{
			up:   []receipt.SampleRecord{ms(j, 260), ms(p, 270), ms(m, 310)},
			down: []receipt.SampleRecord{ms(j, 261), ms(p, 271), ms(m, 311)},
			lie:  drop(1, p),
		}.rolling(t, epochs, intervalNS)
		missing := 0
		for _, lv := range lvs {
			missing += lv.MissingUp
		}
		if missing != 1 {
			t.Fatalf("suppressed record in a dense key's view: %d missing upstream, want 1", missing)
		}
	})
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
