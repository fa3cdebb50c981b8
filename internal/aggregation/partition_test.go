package aggregation

import (
	"math"
	"reflect"
	"testing"

	"vpm/internal/hashing"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
)

func testPath() receipt.PathID {
	return receipt.PathKeyOf(
		packet.MakePrefix(10, 1, 0, 0, 16),
		packet.MakePrefix(172, 16, 0, 0, 16),
		4, 5, 2_000_000)
}

// newPartitioner builds a Partitioner for one path.
func newPartitioner(cfg Config, path receipt.PathID) *Partitioner {
	p := new(Partitioner)
	p.Init(cfg, path)
	return p
}

// Stats returns (packets observed, cutting points seen).
func (p *Partitioner) Stats() (observed, cuts uint64) { return p.observed, p.cutsSeen }

// RecentWindowLen returns the current number of records held in the
// recent-packet window (the §7.1 temporary-buffer quantity).
func (p *Partitioner) RecentWindowLen() int { return len(p.recent) - p.recentHead }

// obs is one (id, time) observation.
type obs struct {
	id uint64
	t  int64
}

// randomStream returns n observations 1µs apart with uniform digests.
func randomStream(seed uint64, n int) []obs {
	r := stats.NewRNG(seed)
	out := make([]obs, n)
	for i := range out {
		out[i] = obs{id: r.Uint64(), t: int64(i) * 1000}
	}
	return out
}

// runPartitioner feeds the stream and flushes.
func runPartitioner(cfg Config, stream []obs) []receipt.AggReceipt {
	p := newPartitioner(cfg, testPath())
	for _, o := range stream {
		p.Observe(o.id, o.t)
	}
	return p.Flush(nil)
}

func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{{CutRate: 0}, {CutRate: -1}, {CutRate: 2}, {CutRate: 0.1, WindowNS: -1}} {
		if c.Validate() == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	if (Config{CutRate: 0.01, WindowNS: 0}).Validate() != nil {
		t.Error("valid config rejected")
	}
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config did not panic")
		}
	}()
	newPartitioner(Config{}, testPath())
}

func TestCountsSumToObserved(t *testing.T) {
	stream := randomStream(1, 100000)
	recs := runPartitioner(Config{CutRate: 0.001, WindowNS: 10_000}, stream)
	var sum uint64
	for _, r := range recs {
		sum += r.PktCnt
	}
	if sum != uint64(len(stream)) {
		t.Fatalf("counts sum to %d, want %d", sum, len(stream))
	}
}

func TestAggIDBoundaries(t *testing.T) {
	stream := randomStream(2, 50000)
	cfg := Config{CutRate: 0.002}
	recs := runPartitioner(cfg, stream)
	if len(recs) < 10 {
		t.Fatalf("too few aggregates: %d", len(recs))
	}
	delta := hashing.ThresholdForRate(cfg.CutRate)
	// Every aggregate's First (after the very first, which may open
	// implicitly) is a cutting point; no internal packet is.
	pos := 0
	for ri, r := range recs {
		if ri > 0 && !hashing.Exceeds(r.Agg.First, delta) {
			t.Fatalf("aggregate %d First is not a cutting point", ri)
		}
		if stream[pos].id != r.Agg.First && ri > 0 {
			t.Fatalf("aggregate %d First mismatch", ri)
		}
		last := pos + int(r.PktCnt) - 1
		if last >= len(stream) {
			t.Fatalf("aggregate %d overruns stream", ri)
		}
		if stream[last].id != r.Agg.Last {
			t.Fatalf("aggregate %d Last mismatch", ri)
		}
		// Internal packets must not be cuts.
		for i := pos + 1; i <= last; i++ {
			if hashing.Exceeds(stream[i].id, delta) {
				t.Fatalf("internal packet %d of aggregate %d is a cut", i, ri)
			}
		}
		pos = last + 1
	}
	if pos != len(stream) {
		t.Fatalf("aggregates cover %d of %d packets", pos, len(stream))
	}
}

func TestCutRateEmpirical(t *testing.T) {
	stream := randomStream(3, 300000)
	for _, rate := range []float64{0.01, 0.001} {
		recs := runPartitioner(Config{CutRate: rate}, stream)
		got := float64(len(recs)) / float64(len(stream))
		if math.Abs(got-rate)/rate > 0.25 {
			t.Errorf("rate %v: %d aggregates over %d packets (%v)", rate, len(recs), len(stream), got)
		}
	}
}

func TestThresholdSubsetProperty(t *testing.T) {
	// §6.2: a HOP with a lower threshold (higher cut rate) cuts at a
	// superset of the points of a higher-threshold HOP.
	stream := randomStream(4, 200000)
	coarse := runPartitioner(Config{CutRate: 0.001}, stream)
	fine := runPartitioner(Config{CutRate: 0.01}, stream)
	fineCuts := make(map[uint64]bool)
	for i := 1; i < len(fine); i++ {
		fineCuts[fine[i].Agg.First] = true
	}
	for i := 1; i < len(coarse); i++ {
		if !fineCuts[coarse[i].Agg.First] {
			t.Fatalf("coarse cut %#x missing from fine cuts", coarse[i].Agg.First)
		}
	}
	if len(fine) <= len(coarse) {
		t.Errorf("fine partition (%d) not finer than coarse (%d)", len(fine), len(coarse))
	}
}

func TestAggTransWindow(t *testing.T) {
	// With a window, each non-final receipt's AggTrans must contain
	// the cutting packet, everything within J before it, and
	// everything within J after it.
	const J = 5_000 // 5µs window; stream spaced 1µs
	stream := randomStream(5, 20000)
	cfg := Config{CutRate: 0.005, WindowNS: J}
	recs := runPartitioner(cfg, stream)
	if len(recs) < 5 {
		t.Fatal("too few aggregates")
	}
	// Index stream by time for expectations.
	timeOf := make(map[uint64]int64, len(stream))
	for _, o := range stream {
		timeOf[o.id] = o.t
	}
	checked := 0
	pos := 0
	for ri := 0; ri < len(recs)-1; ri++ {
		r := recs[ri]
		next := recs[ri+1]
		cutID := next.Agg.First
		cutT, ok := timeOf[cutID]
		if !ok {
			t.Fatal("cut id missing from stream")
		}
		if len(r.AggTrans) == 0 {
			t.Fatalf("aggregate %d has empty AggTrans", ri)
		}
		inWindow := make(map[uint64]bool)
		for _, rec := range r.AggTrans {
			if rec.TimeNS < cutT-J || rec.TimeNS > cutT+J {
				t.Fatalf("AggTrans record outside [cut-J, cut+J]: t=%d cut=%d", rec.TimeNS, cutT)
			}
			inWindow[rec.PktID] = true
		}
		if !inWindow[cutID] {
			t.Fatalf("AggTrans of aggregate %d missing the cutting packet", ri)
		}
		// Every stream packet within the window must be present.
		for _, o := range stream {
			if o.t >= cutT-J && o.t <= cutT+J && !inWindow[o.id] {
				t.Fatalf("packet at t=%d inside window of cut t=%d missing from AggTrans", o.t, cutT)
			}
		}
		pos += int(r.PktCnt)
		checked++
	}
	if checked == 0 {
		t.Fatal("no windows checked")
	}
}

func TestZeroWindowDisablesAggTrans(t *testing.T) {
	recs := runPartitioner(Config{CutRate: 0.01, WindowNS: 0}, randomStream(6, 20000))
	for i, r := range recs {
		if len(r.AggTrans) != 0 {
			t.Fatalf("receipt %d has AggTrans with zero window", i)
		}
	}
}

func TestTakeVsFlush(t *testing.T) {
	p := newPartitioner(Config{CutRate: 0.01, WindowNS: 1000}, testPath())
	stream := randomStream(7, 10000)
	for _, o := range stream {
		p.Observe(o.id, o.t)
	}
	early := p.Take()
	rest := p.Flush(nil)
	var sum uint64
	for _, r := range early {
		sum += r.PktCnt
	}
	for _, r := range rest {
		sum += r.PktCnt
	}
	if sum != uint64(len(stream)) {
		t.Fatalf("Take+Flush cover %d of %d", sum, len(stream))
	}
	if len(p.Flush(nil)) != 0 {
		t.Error("second Flush should be empty")
	}
}

func TestRecentWindowBounded(t *testing.T) {
	const J = 10_000 // 10µs; stream spaced 1µs -> ~10 packets in window
	p := newPartitioner(Config{CutRate: 0.001, WindowNS: J}, testPath())
	for _, o := range randomStream(8, 50000) {
		p.Observe(o.id, o.t)
		if n := p.RecentWindowLen(); n > 15 {
			t.Fatalf("recent window grew to %d", n)
		}
	}
}

func TestStats(t *testing.T) {
	p := newPartitioner(Config{CutRate: 0.01}, testPath())
	stream := randomStream(9, 10000)
	for _, o := range stream {
		p.Observe(o.id, o.t)
	}
	obs, cuts := p.Stats()
	if obs != uint64(len(stream)) {
		t.Errorf("observed %d", obs)
	}
	if cuts == 0 {
		t.Error("no cuts recorded")
	}
}

func BenchmarkPartitionerObserve(b *testing.B) {
	p := newPartitioner(Config{CutRate: 0.001, WindowNS: 10_000}, testPath())
	r := stats.NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Observe(r.Uint64(), int64(i)*1000)
		if i%1000000 == 0 {
			p.Take()
		}
	}
}

// windowedReceipts is the aggregate receipts of a whole stream, flushed
// at its end, worked out from the stream itself rather than from a
// Partitioner's recent window: a cut at time T closes the aggregate
// before it with every earlier packet at or after T-J, the cut, and
// every later packet in (T, T+J]; the last aggregate carries every
// packet at or after the final time minus J.
func windowedReceipts(cfg Config, stream []obs) []receipt.AggReceipt {
	delta := hashing.ThresholdForRate(cfg.CutRate)
	var out []receipt.AggReceipt
	start := 0
	window := func(lo, hi int64, upTo int) []receipt.SampleRecord {
		var w []receipt.SampleRecord
		for _, o := range stream[:upTo] {
			if o.t >= lo && o.t <= hi {
				w = append(w, receipt.SampleRecord{PktID: o.id, TimeNS: o.t})
			}
		}
		return w
	}
	for i := 1; i < len(stream); i++ {
		if !hashing.Exceeds(stream[i].id, delta) {
			continue
		}
		cut := stream[i]
		trans := window(cut.t-cfg.WindowNS, cut.t, i)
		trans = append(trans, receipt.SampleRecord{PktID: cut.id, TimeNS: cut.t})
		for _, o := range stream[i+1:] {
			if o.t > cut.t && o.t <= cut.t+cfg.WindowNS {
				trans = append(trans, receipt.SampleRecord{PktID: o.id, TimeNS: o.t})
			}
		}
		out = append(out, receipt.AggReceipt{
			Path:     testPath(),
			Agg:      receipt.AggID{First: stream[start].id, Last: stream[i-1].id},
			PktCnt:   uint64(i - start),
			AggTrans: trans,
		})
		start = i
	}
	end := stream[len(stream)-1].t
	return append(out, receipt.AggReceipt{
		Path:     testPath(),
		Agg:      receipt.AggID{First: stream[start].id, Last: stream[len(stream)-1].id},
		PktCnt:   uint64(len(stream) - start),
		AggTrans: window(end-cfg.WindowNS, end, len(stream)),
	})
}

// TestAggTransMatchesStreamWindows: on a sparse stream — gaps longer
// than J between bursts shorter than it, so the recent window is often
// wholly stale when the next packet arrives and is dropped unread —
// the partitioner yields exactly the receipts worked out from the
// stream, AggTrans included. (The deployed collector is held to this
// partitioner on such streams by core's TestStaleWindowSkipMatchesOracle.)
func TestAggTransMatchesStreamWindows(t *testing.T) {
	const J = 100_000
	cfg := Config{CutRate: 0.05, WindowNS: J}
	for seed := uint64(1); seed <= 4; seed++ {
		r := stats.NewRNG(seed)
		stream := make([]obs, 5000)
		var now int64
		for i := range stream {
			switch r.Intn(4) {
			case 0:
				now += J + 1 + int64(r.Intn(2*J)) // a gap: the window goes stale
			case 1:
				now += J // exactly J: the oldest record stays
			default:
				now += int64(r.Intn(J / 4))
			}
			stream[i] = obs{id: r.Uint64(), t: now}
		}
		want := windowedReceipts(cfg, stream)
		if got := runPartitioner(cfg, stream); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: per-packet receipts differ from the stream's windows (%d vs %d receipts)", seed, len(got), len(want))
		}
	}
}

// TestTakeTransfersOwnership proves Take transfers ownership of the
// closed-receipt buffer: receipts it returned are never clobbered by
// later observation, and no later Take or Flush aliases a buffer the
// caller still holds.
func TestTakeTransfersOwnership(t *testing.T) {
	cfg := Config{CutRate: 0.05, WindowNS: 10_000}
	p := newPartitioner(cfg, testPath())
	stream := randomStream(3, 8000)
	for _, o := range stream[:4000] {
		p.Observe(o.id, o.t)
	}
	first := p.Take()
	snapshot := append([]receipt.AggReceipt(nil), first...)
	for _, o := range stream[4000:] {
		p.Observe(o.id, o.t)
	}
	if !reflect.DeepEqual(first, snapshot) {
		t.Fatal("receipts from Take were clobbered by later observation")
	}
	second := p.Take()
	for _, o := range stream {
		p.Observe(o.id, o.t+stream[len(stream)-1].t+1)
	}
	third := p.Flush(nil)
	if len(second) > 0 && len(third) > 0 && &second[0] == &third[0] {
		t.Fatal("buffer still owned by caller was handed out again")
	}
	if len(third) == 0 {
		t.Fatal("no receipts after the second Take")
	}
}
