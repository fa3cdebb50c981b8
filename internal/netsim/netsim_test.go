package netsim

import (
	"testing"

	"vpm/internal/delaymodel"
	"vpm/internal/lossmodel"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

func testTrace(t testing.TB, rate float64, durNS int64) []packet.Packet {
	t.Helper()
	pkts, err := trace.Generate(trace.Config{
		Seed:       7,
		DurationNS: durNS,
		Paths:      []trace.PathSpec{trace.DefaultPath(rate)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}

// recorder captures one HOP's observations.
type recorder struct {
	ids   []uint64
	times []int64
}

func (r *recorder) Observe(_ *packet.Packet, digest uint64, tNS int64) {
	r.ids = append(r.ids, digest)
	r.times = append(r.times, tNS)
}

func allRecorders(p *Path) (map[receipt.HOPID]Observer, map[receipt.HOPID]*recorder) {
	obs := make(map[receipt.HOPID]Observer)
	recs := make(map[receipt.HOPID]*recorder)
	for h := 1; h <= p.NumHOPs(); h++ {
		r := &recorder{}
		obs[receipt.HOPID(h)] = r
		recs[receipt.HOPID(h)] = r
	}
	return obs, recs
}

func TestValidate(t *testing.T) {
	p := &Path{Domains: []DomainSpec{{Name: "A"}}}
	if err := p.Validate(); err == nil {
		t.Error("single-domain path accepted")
	}
	p = &Path{Domains: []DomainSpec{{Name: "A"}, {Name: "B"}}}
	if err := p.Validate(); err == nil {
		t.Error("missing links accepted")
	}
	if _, err := p.Run(nil, nil); err == nil {
		t.Error("Run on invalid path accepted")
	}
}

func TestFig1Shape(t *testing.T) {
	p := Fig1Path(1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumHOPs() != 8 {
		t.Fatalf("Fig1 has %d HOPs, want 8", p.NumHOPs())
	}
	in, eg := p.HOPsOf(p.DomainIndex("X"))
	if in != 4 || eg != 5 {
		t.Fatalf("X HOPs = %d,%d, want 4,5", in, eg)
	}
	in, eg = p.HOPsOf(0)
	if in != 1 || eg != 1 {
		t.Fatalf("S HOPs = %d,%d", in, eg)
	}
	in, eg = p.HOPsOf(4)
	if in != 8 || eg != 8 {
		t.Fatalf("D HOPs = %d,%d", in, eg)
	}
	if p.DomainIndex("nope") != -1 {
		t.Error("bogus domain found")
	}
}

func TestConservation(t *testing.T) {
	p := Fig1Path(2)
	xi := p.DomainIndex("X")
	p.Domains[xi].Loss = lossmodel.NewBernoulli(0.1, stats.NewRNG(3))
	p.Links[1].Loss = lossmodel.NewBernoulli(0.05, stats.NewRNG(4))
	pkts := testTrace(t, 20000, int64(1e9))
	res, err := p.Run(pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var linkDrops uint64
	for _, d := range res.LinkDrops {
		linkDrops += d
	}
	var domainDrops uint64
	for _, d := range res.Domains {
		domainDrops += d.DroppedInside
	}
	if res.Sent != res.Delivered+int(linkDrops)+int(domainDrops) {
		t.Fatalf("conservation: sent %d != delivered %d + link %d + domain %d",
			res.Sent, res.Delivered, linkDrops, domainDrops)
	}
	x, ok := res.DomainByName("X")
	if !ok {
		t.Fatal("X truth missing")
	}
	if lr := x.LossRate(); lr < 0.07 || lr > 0.13 {
		t.Errorf("X loss rate %v, want ~0.1", lr)
	}
	if _, ok := res.DomainByName("nope"); ok {
		t.Error("bogus domain truth found")
	}
}

func TestTrueDelaysRecorded(t *testing.T) {
	p := Fig1Path(3)
	xi := p.DomainIndex("X")
	q, err := delaymodel.New(delaymodel.BurstyUDPScenario(9))
	if err != nil {
		t.Fatal(err)
	}
	p.Domains[xi].Delay = q
	// The Figure 2 experiments drive 100k pkt/s through X; the bursty
	// scenario is calibrated against that foreground load.
	pkts := testTrace(t, 100000, int64(500e6))
	res, err := p.Run(pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := res.DomainByName("X")
	if uint64(len(x.TrueDelaysNS)) != x.Out {
		t.Fatalf("%d delays for %d delivered packets", len(x.TrueDelaysNS), x.Out)
	}
	base := float64(p.Domains[xi].BaseDelayNS)
	congested := 0
	for _, d := range x.TrueDelaysNS {
		if d < base {
			t.Fatalf("delay %v below base %v", d, base)
		}
		if d > base+5e6 {
			congested++
		}
	}
	if congested == 0 {
		t.Error("congestion never pushed delay above base+5ms")
	}
	// The uncongested domain L must show much smaller delays.
	l, _ := res.DomainByName("L")
	lMax := stats.Max(l.TrueDelaysNS)
	if lMax > base+float64(p.Domains[1].ReorderJitterNS)+1000 {
		t.Errorf("uncongested L max delay %v too high", lMax)
	}
}

func TestObserverOrderAndCompleteness(t *testing.T) {
	p := Fig1Path(4)
	obs, recs := allRecorders(p)
	pkts := testTrace(t, 20000, int64(300e6))
	res, err := p.Run(pkts, obs)
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= 8; h++ {
		r := recs[receipt.HOPID(h)]
		for i := 1; i < len(r.times); i++ {
			if r.times[i] < r.times[i-1] {
				t.Fatalf("HOP %d observations out of order at %d", h, i)
			}
		}
	}
	// Lossless path: every HOP sees every packet.
	for h := 1; h <= 8; h++ {
		if got := len(recs[receipt.HOPID(h)].ids); got != res.Sent {
			t.Fatalf("HOP %d saw %d of %d packets on a lossless path", h, got, res.Sent)
		}
	}
}

// TestSharedObserverStaysSequential pins the aliasing contract of the
// parallel replay: when the same Observer instance is attached to
// several HOPs, those HOPs replay sequentially (in HOP order) in one
// goroutine, so a non-thread-safe observer sees exactly what the old
// serial replay delivered.
func TestSharedObserverStaysSequential(t *testing.T) {
	pkts := testTrace(t, 20000, int64(200e6))

	sep4, sep5 := &recorder{}, &recorder{}
	p := Fig1Path(12)
	if _, err := p.Run(pkts, map[receipt.HOPID]Observer{4: sep4, 5: sep5}); err != nil {
		t.Fatal(err)
	}

	shared := &recorder{}
	p = Fig1Path(12)
	if _, err := p.Run(pkts, map[receipt.HOPID]Observer{4: shared, 5: shared}); err != nil {
		t.Fatal(err)
	}

	want := append(append([]uint64{}, sep4.ids...), sep5.ids...)
	if len(shared.ids) != len(want) {
		t.Fatalf("shared observer saw %d observations, want %d", len(shared.ids), len(want))
	}
	for i := range want {
		if shared.ids[i] != want[i] {
			t.Fatalf("shared observer order diverges at %d: HOP replay not sequential", i)
		}
	}
}

// TestBatchObserverDelivery checks that a BatchObserver receives the
// same observations, in the same order, as a plain Observer.
func TestBatchObserverDelivery(t *testing.T) {
	pkts := testTrace(t, 20000, int64(200e6))

	plain := &recorder{}
	p := Fig1Path(13)
	if _, err := p.Run(pkts, map[receipt.HOPID]Observer{4: plain}); err != nil {
		t.Fatal(err)
	}

	batched := &batchRecorder{}
	p = Fig1Path(13)
	if _, err := p.Run(pkts, map[receipt.HOPID]Observer{4: batched}); err != nil {
		t.Fatal(err)
	}

	if batched.singles != 0 {
		t.Fatalf("BatchObserver got %d single-packet calls", batched.singles)
	}
	if batched.batches == 0 {
		t.Fatal("BatchObserver never received a batch")
	}
	if len(batched.ids) != len(plain.ids) {
		t.Fatalf("batched path saw %d observations, plain saw %d", len(batched.ids), len(plain.ids))
	}
	for i := range plain.ids {
		if batched.ids[i] != plain.ids[i] || batched.times[i] != plain.times[i] {
			t.Fatalf("batched delivery diverges from per-packet delivery at %d", i)
		}
	}
}

// batchRecorder records observations through the ObserveBatch fast
// path and counts any stray single-packet deliveries.
type batchRecorder struct {
	recorder
	batches int
	singles int
}

func (r *batchRecorder) Observe(pkt *packet.Packet, digest uint64, tNS int64) {
	r.singles++
	r.recorder.Observe(pkt, digest, tNS)
}

func (r *batchRecorder) ObserveBatch(batch []Observation) {
	r.batches++
	for i := range batch {
		r.recorder.Observe(batch[i].Pkt, batch[i].Digest, batch[i].TimeNS)
	}
}

func TestReorderingOccursWithinJitter(t *testing.T) {
	p := Fig1Path(5)
	// Packets at 100k pkt/s are ~10µs apart; 200µs jitter reorders.
	obs, recs := allRecorders(p)
	pkts := testTrace(t, 100000, int64(200e6))
	if _, err := p.Run(pkts, obs); err != nil {
		t.Fatal(err)
	}
	// Compare arrival order at HOP 1 (send order) and HOP 5 (after
	// domains with jitter).
	order1 := recs[1].ids
	order5 := recs[5].ids
	pos5 := make(map[uint64]int, len(order5))
	for i, id := range order5 {
		pos5[id] = i
	}
	inversions := 0
	prev := -1
	for _, id := range order1 {
		p5, ok := pos5[id]
		if !ok {
			continue
		}
		if p5 < prev {
			inversions++
		}
		if p5 > prev {
			prev = p5
		}
	}
	if inversions == 0 {
		t.Error("no reordering despite jitter >> inter-arrival gap")
	}
}

func TestClockSkewShiftsObservations(t *testing.T) {
	p := Fig1Path(6)
	const skew = 5_000_000
	xi := p.DomainIndex("X")
	p.Domains[xi].IngressSkewNS = skew
	obs, recs := allRecorders(p)
	pkts := testTrace(t, 5000, int64(100e6))
	if _, err := p.Run(pkts, obs); err != nil {
		t.Fatal(err)
	}
	// HOP 4 (X ingress, skewed) must timestamp later than HOP 3 (L
	// egress) by at least skew (link delay only adds).
	r3, r4 := recs[3], recs[4]
	t3 := make(map[uint64]int64, len(r3.ids))
	for i, id := range r3.ids {
		t3[id] = r3.times[i]
	}
	for i, id := range r4.ids {
		d := r4.times[i] - t3[id]
		if d < skew {
			t.Fatalf("skewed HOP timestamp delta %d below skew %d", d, skew)
		}
	}
}

func TestPreferentialBypassesLossAndDelay(t *testing.T) {
	p := Fig1Path(7)
	xi := p.DomainIndex("X")
	p.Domains[xi].Loss = lossmodel.NewBernoulli(0.5, stats.NewRNG(1))
	p.Domains[xi].Preferential = func(*packet.Packet, uint64) bool { return true }
	pkts := testTrace(t, 10000, int64(200e6))
	res, err := p.Run(pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := res.DomainByName("X")
	if x.DroppedInside != 0 {
		t.Fatalf("preferential treatment should bypass loss, dropped %d", x.DroppedInside)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		p := Fig1Path(8)
		p.Domains[2].Loss = lossmodel.NewBernoulli(0.2, stats.NewRNG(5))
		pkts := testTrace(t, 20000, int64(200e6))
		res, err := p.Run(pkts, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Delivered != b.Delivered {
		t.Fatalf("non-deterministic delivery: %d vs %d", a.Delivered, b.Delivered)
	}
	for i := range a.Domains {
		if a.Domains[i].DroppedInside != b.Domains[i].DroppedInside {
			t.Fatalf("non-deterministic drops in %s", a.Domains[i].Name)
		}
	}
}

func TestPathIDFor(t *testing.T) {
	p := Fig1Path(9)
	key := receipt.PathKeyOf(
		packet.MakePrefix(10, 1, 0, 0, 16),
		packet.MakePrefix(172, 16, 0, 0, 16), 0, 0, 0)
	xi := p.DomainIndex("X")
	ingressID := p.PathIDFor(key, xi, true)
	if ingressID.PrevHOP != 3 || ingressID.NextHOP != 5 {
		t.Errorf("X ingress prev/next = %v/%v, want 3/5", ingressID.PrevHOP, ingressID.NextHOP)
	}
	if ingressID.MaxDiffNS != p.Links[1].MaxDiffNS {
		t.Errorf("X ingress MaxDiff = %d", ingressID.MaxDiffNS)
	}
	egressID := p.PathIDFor(key, xi, false)
	if egressID.PrevHOP != 4 || egressID.NextHOP != 6 {
		t.Errorf("X egress prev/next = %v/%v, want 4/6", egressID.PrevHOP, egressID.NextHOP)
	}
	// Path ends: no prev for HOP 1, no next for HOP 8.
	srcID := p.PathIDFor(key, 0, false)
	if srcID.PrevHOP != 0 || srcID.NextHOP != 2 {
		t.Errorf("S egress prev/next = %v/%v", srcID.PrevHOP, srcID.NextHOP)
	}
	dstID := p.PathIDFor(key, 4, true)
	if dstID.PrevHOP != 7 || dstID.NextHOP != 0 {
		t.Errorf("D ingress prev/next = %v/%v", dstID.PrevHOP, dstID.NextHOP)
	}
}

func TestPartialDeploymentRuns(t *testing.T) {
	p := Fig1Path(10)
	// Only HOP 4 observes.
	r := &recorder{}
	obs := map[receipt.HOPID]Observer{4: r}
	pkts := testTrace(t, 5000, int64(100e6))
	if _, err := p.Run(pkts, obs); err != nil {
		t.Fatal(err)
	}
	if len(r.ids) == 0 {
		t.Error("lone observer saw nothing")
	}
}

// BenchmarkRunFig1 drives 10 000 packets across Fig1 with a no-op
// batch observer on all 8 HOPs, so the sweep, the arrival sort and the
// batched delivery all run.
func BenchmarkRunFig1(b *testing.B) {
	pkts := testTrace(b, 100000, int64(100e6))
	obs := make(map[receipt.HOPID]Observer, 8)
	for h := 1; h <= 8; h++ {
		obs[receipt.HOPID(h)] = nopObserver{h}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := Fig1Path(11)
		if _, err := p.Run(pkts, obs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pkts)), "ns/pkt")
}

// lossyCongestedFig1 builds a Fig1 path with stateful loss and
// congestion inside X, so the Runner's state-persistence claim is
// exercised against every kind of simulation state, not just jitter
// RNGs.
func lossyCongestedFig1(t *testing.T, seed uint64) *Path {
	t.Helper()
	p := Fig1Path(seed)
	xi := p.DomainIndex("X")
	ge, err := lossmodel.FromTargetLoss(0.05, 8, stats.NewRNG(seed+13))
	if err != nil {
		t.Fatal(err)
	}
	p.Domains[xi].Loss = ge
	q, err := delaymodel.New(delaymodel.BurstyUDPScenario(seed + 7))
	if err != nil {
		t.Fatal(err)
	}
	p.Domains[xi].Delay = q
	return p
}

// TestRunnerSegmentsMatchOneShot: driving a trace through a Runner in
// epoch-sized segments makes exactly the per-packet drop and delay
// decisions of a single Run — the property continuous operation's
// segment loop relies on. (Only replay delivery grouping differs:
// observations are replayed per segment, so each HOP's multiset of
// observations is compared, not its delivery order.)
func TestRunnerSegmentsMatchOneShot(t *testing.T) {
	pkts := testTrace(t, 20_000, int64(2e8))

	oneObs, oneRecs := allRecorders(Fig1Path(0)) // shape only
	oneShot := lossyCongestedFig1(t, 33)
	resOne, err := oneShot.Run(pkts, oneObs)
	if err != nil {
		t.Fatal(err)
	}

	segPath := lossyCongestedFig1(t, 33)
	runner, err := NewRunner(segPath)
	if err != nil {
		t.Fatal(err)
	}
	segObs, segRecs := allRecorders(segPath)
	var merged []*Result
	const segments = 4
	per := (len(pkts) + segments - 1) / segments
	for lo := 0; lo < len(pkts); lo += per {
		hi := lo + per
		if hi > len(pkts) {
			hi = len(pkts)
		}
		var res *Result
		var err error
		if hi < len(pkts) {
			// The next segment's packets are all sent at or after the
			// first one's send time — the honest horizon.
			res, err = runner.RunSegment(pkts[lo:hi], segObs, pkts[hi].SentAt)
		} else {
			res, err = runner.Run(pkts[lo:hi], segObs)
		}
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, res)
	}

	// Ground truth must agree exactly once the segments are summed.
	var sent, delivered int
	drops := make([]uint64, len(oneShot.Links))
	perDomain := make([]DomainTruth, len(resOne.Domains))
	for i := range perDomain {
		perDomain[i].Name = resOne.Domains[i].Name
	}
	for _, res := range merged {
		sent += res.Sent
		delivered += res.Delivered
		for i, d := range res.LinkDrops {
			drops[i] += d
		}
		for i, d := range res.Domains {
			perDomain[i].In += d.In
			perDomain[i].Out += d.Out
			perDomain[i].DroppedInside += d.DroppedInside
			perDomain[i].TrueDelaysNS = append(perDomain[i].TrueDelaysNS, d.TrueDelaysNS...)
		}
	}
	if sent != resOne.Sent || delivered != resOne.Delivered {
		t.Fatalf("sent/delivered differ: segments (%d,%d) one-shot (%d,%d)",
			sent, delivered, resOne.Sent, resOne.Delivered)
	}
	for i := range drops {
		if drops[i] != resOne.LinkDrops[i] {
			t.Fatalf("link %d drops differ: %d vs %d", i, drops[i], resOne.LinkDrops[i])
		}
	}
	for i, d := range perDomain {
		o := resOne.Domains[i]
		if d.In != o.In || d.Out != o.Out || d.DroppedInside != o.DroppedInside {
			t.Fatalf("domain %s truth differs: segments %+v one-shot In=%d Out=%d Dropped=%d",
				d.Name, d, o.In, o.Out, o.DroppedInside)
		}
		if len(d.TrueDelaysNS) != len(o.TrueDelaysNS) {
			t.Fatalf("domain %s delay count differs: %d vs %d", d.Name, len(d.TrueDelaysNS), len(o.TrueDelaysNS))
		}
		for j := range d.TrueDelaysNS {
			if d.TrueDelaysNS[j] != o.TrueDelaysNS[j] {
				t.Fatalf("domain %s delay %d differs", d.Name, j)
			}
		}
	}

	// Every HOP saw the identical observation sequence — same packets,
	// same times, same delivery order. Replay withholding is what makes
	// this exact: boundary-overlap observations are merged into the
	// next segment's arrival-ordered replay instead of being delivered
	// early.
	for hop, one := range oneRecs {
		seg := segRecs[hop]
		if len(one.ids) != len(seg.ids) {
			t.Fatalf("%v observation count differs: %d vs %d", hop, len(one.ids), len(seg.ids))
		}
		for i := range one.ids {
			if one.ids[i] != seg.ids[i] || one.times[i] != seg.times[i] {
				t.Fatalf("%v observation %d differs: one-shot (%x, %d) segmented (%x, %d)",
					hop, i, one.ids[i], one.times[i], seg.ids[i], seg.times[i])
			}
		}
	}
}
