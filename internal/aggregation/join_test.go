package aggregation

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"vpm/internal/hashing"
	"vpm/internal/receipt"
	"vpm/internal/stats"
)

// oracleJoin is the allocating reference join: the same algorithm
// scanning b for each boundary instead of indexing it, over fresh
// slices, combining with receipt.CombineAggregates (which copies
// AggTrans).
func oracleJoin(a, b []receipt.AggReceipt) []Pair {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	var pairs []Pair
	ia, ib := 0, 0
	for i := 1; i < len(a); i++ {
		// The first internal boundary of b (an aggregate after the first)
		// that starts at a[i]'s First packet.
		j := 1 + slices.IndexFunc(b[1:], func(r receipt.AggReceipt) bool { return r.Agg.First == a[i].Agg.First })
		if j == 0 || j <= ib {
			continue
		}
		ca, err1 := receipt.CombineAggregates(a[ia:i]...)
		cb, err2 := receipt.CombineAggregates(b[ib:j]...)
		if err1 != nil || err2 != nil {
			continue
		}
		pairs = append(pairs, Pair{A: ca, B: cb})
		ia, ib = i, j
	}
	ca, err1 := receipt.CombineAggregates(a[ia:]...)
	cb, err2 := receipt.CombineAggregates(b[ib:]...)
	if err1 == nil && err2 == nil {
		pairs = append(pairs, Pair{A: ca, B: cb})
	}
	return pairs
}

// oraclePatchUp is the allocating reference patch-up: a fresh side map
// per boundary.
func oraclePatchUp(pairs []Pair) int {
	migrations := 0
	for k := 0; k+1 < len(pairs); k++ {
		cutID := pairs[k+1].A.Agg.First
		if cutID != pairs[k+1].B.Agg.First {
			continue
		}
		wa, wb := pairs[k].A.AggTrans, pairs[k].B.AggTrans
		posA, okA := indexOf(wa, cutID)
		posB, okB := indexOf(wb, cutID)
		if !okA || !okB {
			continue
		}
		sideB := make(map[uint64]bool, len(wb))
		for i, r := range wb {
			if r.PktID == cutID {
				continue
			}
			if _, dup := sideB[r.PktID]; !dup {
				sideB[r.PktID] = i < posB
			}
		}
		for i, r := range wa {
			if r.PktID == cutID {
				continue
			}
			beforeAtB, seen := sideB[r.PktID]
			if !seen {
				continue
			}
			beforeAtA := i < posA
			switch {
			case beforeAtA && !beforeAtB:
				pairs[k].B.PktCnt++
				pairs[k+1].B.PktCnt--
				migrations++
			case !beforeAtA && beforeAtB:
				pairs[k].B.PktCnt--
				pairs[k+1].B.PktCnt++
				migrations++
			}
		}
	}
	return migrations
}

// joinRaw is the join without the patch-up, for the test that looks at
// counts before alignment.
func joinRaw(a, b []receipt.AggReceipt) []Pair {
	var j Joiner
	j.join(a, b)
	return j.pairs
}

// joinAligned is the full §6 pipeline on a fresh Joiner.
func joinAligned(a, b []receipt.AggReceipt) []Pair {
	var j Joiner
	pairs, _ := j.Join(a, b)
	return pairs
}

// runPair feeds the upstream stream to one partitioner and a
// downstream variant (possibly with drops/reorder) to another,
// returning both receipt sequences.
func runPair(cfgUp, cfgDown Config, up, down []obs) (a, b []receipt.AggReceipt) {
	pa := newPartitioner(cfgUp, testPath())
	for _, o := range up {
		pa.Observe(o.id, o.t)
	}
	pb := newPartitioner(cfgDown, testPath())
	for _, o := range down {
		pb.Observe(o.id, o.t)
	}
	return pa.Flush(nil), pb.Flush(nil)
}

func TestJoinIdenticalStreams(t *testing.T) {
	stream := randomStream(11, 100000)
	cfg := Config{CutRate: 0.001, WindowNS: 10_000}
	a, b := runPair(cfg, cfg, stream, stream)
	pairs := joinAligned(a, b)
	if len(pairs) != len(a) {
		t.Fatalf("join of identical sequences has %d pairs, want %d", len(pairs), len(a))
	}
	for i, p := range pairs {
		if p.Lost() != 0 {
			t.Fatalf("pair %d lost %d on identical streams", i, p.Lost())
		}
		if p.A.Agg != p.B.Agg {
			t.Fatalf("pair %d AggIDs differ", i)
		}
	}
}

func TestJoinDifferentThresholds(t *testing.T) {
	// §6.2: with no loss/reorder, differently tuned HOPs produce
	// nested partitions; the join equals the coarser side and all
	// counts agree.
	stream := randomStream(12, 150000)
	a, b := runPair(
		Config{CutRate: 0.0005, WindowNS: 10_000},
		Config{CutRate: 0.01, WindowNS: 10_000},
		stream, stream)
	pairs := joinAligned(a, b)
	if len(pairs) != len(a) {
		t.Fatalf("join has %d pairs, want coarse side's %d", len(pairs), len(a))
	}
	for i, p := range pairs {
		if p.Lost() != 0 {
			t.Fatalf("pair %d lost %d with no loss", i, p.Lost())
		}
	}
}

func TestJoinExactLossAccounting(t *testing.T) {
	// Drop a known set of non-cut packets downstream; the join must
	// attribute exactly those losses, pair by pair.
	stream := randomStream(13, 120000)
	cfg := Config{CutRate: 0.001, WindowNS: 0}
	delta := hashing.ThresholdForRate(cfg.CutRate)
	r := stats.NewRNG(99)
	var down []obs
	dropped := 0
	for _, o := range stream {
		if !hashing.Exceeds(o.id, delta) && r.Bool(0.1) {
			dropped++
			continue
		}
		down = append(down, o)
	}
	a, b := runPair(cfg, cfg, stream, down)
	pairs := joinAligned(a, b)
	if len(pairs) != len(a) {
		// All cuts survive, so alignment must be perfect.
		t.Fatalf("join has %d pairs, want %d", len(pairs), len(a))
	}
	var lost int64
	for i, p := range pairs {
		if p.Lost() < 0 {
			t.Fatalf("pair %d negative loss %d", i, p.Lost())
		}
		lost += p.Lost()
	}
	if lost != int64(dropped) {
		t.Fatalf("join accounts %d losses, want %d", lost, dropped)
	}
}

func TestJoinLostCuttingPointsMerge(t *testing.T) {
	// §6.3: dropping cutting points coarsens the join smoothly — the
	// two sides still produce pairs and total counts still reconcile.
	stream := randomStream(14, 150000)
	cfg := Config{CutRate: 0.002, WindowNS: 0}
	delta := hashing.ThresholdForRate(cfg.CutRate)
	r := stats.NewRNG(7)
	var down []obs
	droppedCuts, dropped := 0, 0
	for _, o := range stream {
		if hashing.Exceeds(o.id, delta) && r.Bool(0.25) {
			droppedCuts++
			dropped++
			continue
		}
		down = append(down, o)
	}
	if droppedCuts == 0 {
		t.Fatal("test did not drop any cuts")
	}
	a, b := runPair(cfg, cfg, stream, down)
	pairs := joinAligned(a, b)
	if len(pairs) == 0 {
		t.Fatal("no pairs after cut loss")
	}
	if len(pairs) >= len(a) {
		t.Fatalf("join should coarsen: %d pairs vs %d upstream receipts", len(pairs), len(a))
	}
	var lost int64
	for _, p := range pairs {
		lost += p.Lost()
	}
	if lost != int64(dropped) {
		t.Fatalf("join accounts %d losses, want %d", lost, dropped)
	}
}

func TestJoinEmpty(t *testing.T) {
	var j Joiner
	if pairs, n := j.Join(nil, nil); len(pairs) != 0 || n != 0 {
		t.Error("join of empties should be empty")
	}
	one := []receipt.AggReceipt{{Path: testPath(), PktCnt: 5}}
	if pairs, _ := j.Join(one, one); len(pairs) != 1 {
		t.Fatal("join of one aggregate with itself should be one pair")
	}
	if pairs, _ := j.Join(one, nil); len(pairs) != 0 {
		t.Error("join with an empty downstream side should be empty")
	}
	if pairs, _ := j.Join(nil, one); len(pairs) != 0 {
		t.Error("join with an empty upstream side should be empty")
	}
}

func TestJoinSingleAggregates(t *testing.T) {
	p := testPath()
	a := []receipt.AggReceipt{{Path: p, Agg: receipt.AggID{First: 1, Last: 9}, PktCnt: 10}}
	b := []receipt.AggReceipt{{Path: p, Agg: receipt.AggID{First: 1, Last: 9}, PktCnt: 8}}
	pairs := joinAligned(a, b)
	if len(pairs) != 1 || pairs[0].Lost() != 2 {
		t.Fatalf("pairs = %+v", pairs)
	}
}

func TestPatchUpPaperExample(t *testing.T) {
	// The §6.3 worked example: upstream observes p1..p8 with a cut at
	// p5; downstream observes p4 and p5 swapped. Without patch-up the
	// counts disagree (3 vs 4, 5 vs 4); with patch-up they align.
	delta := hashing.ThresholdForRate(0.5)
	// Construct IDs: only idx 4 ("p5") exceeds delta.
	r := stats.NewRNG(21)
	ids := make([]uint64, 8)
	for i := range ids {
		for {
			v := r.Uint64()
			isCut := hashing.Exceeds(v, delta)
			if isCut == (i == 4) {
				ids[i] = v
				break
			}
		}
	}
	const gap = 100 // ns between packets; window J comfortably larger
	mkObs := func(order []int) []obs {
		out := make([]obs, len(order))
		for pos, idx := range order {
			out[pos] = obs{id: ids[idx], t: int64(pos) * gap}
		}
		return out
	}
	up := mkObs([]int{0, 1, 2, 3, 4, 5, 6, 7})   // p1..p8
	down := mkObs([]int{0, 1, 2, 4, 3, 5, 6, 7}) // p4, p5 swapped
	cfg := Config{CutRate: 0.5, WindowNS: 1000}
	a, b := runPair(cfg, cfg, up, down)
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("unexpected partitioning: %d and %d aggregates", len(a), len(b))
	}
	pairs := joinRaw(a, b)
	if len(pairs) != 2 {
		t.Fatalf("join has %d pairs", len(pairs))
	}
	if pairs[0].Lost() == 0 && pairs[1].Lost() == 0 {
		t.Fatal("reordering should misalign raw counts (4,4 vs 3,5)")
	}
	var j Joiner
	n := j.patchUp(pairs)
	if n != 1 {
		t.Fatalf("PatchUp migrated %d packets, want 1", n)
	}
	for i, p := range pairs {
		if p.Lost() != 0 {
			t.Fatalf("pair %d still misaligned after patch-up: lost=%d", i, p.Lost())
		}
	}
}

func TestJoinAlignedUnderJitterReordering(t *testing.T) {
	// Randomized reordering confined to a J-sized neighborhood: after
	// Join, total loss must be exactly zero (nothing dropped).
	stream := randomStream(15, 60000) // spaced 1000ns
	const J = 20_000
	r := stats.NewRNG(31)
	down := make([]obs, len(stream))
	copy(down, stream)
	// Swap ~5% of adjacent pairs (reorder within 1µs << J), keeping
	// observation times attached to positions, as a real HOP would
	// timestamp arrivals.
	for i := 0; i+1 < len(down); i += 2 {
		if r.Bool(0.05) {
			down[i].id, down[i+1].id = down[i+1].id, down[i].id
		}
	}
	cfg := Config{CutRate: 0.002, WindowNS: J}
	a, b := runPair(cfg, cfg, stream, down)
	pairs := joinAligned(a, b)
	if len(pairs) == 0 {
		t.Fatal("no pairs")
	}
	var lost int64
	for _, p := range pairs {
		lost += p.Lost()
	}
	if lost != 0 {
		t.Fatalf("Join leaves %d phantom losses under pure reordering", lost)
	}
}

func TestPatchUpNoWindows(t *testing.T) {
	// Without AggTrans, the patch-up is a no-op.
	p := testPath()
	pairs := []Pair{
		{A: receipt.AggReceipt{Path: p, Agg: receipt.AggID{First: 1, Last: 2}, PktCnt: 4},
			B: receipt.AggReceipt{Path: p, Agg: receipt.AggID{First: 1, Last: 2}, PktCnt: 3}},
		{A: receipt.AggReceipt{Path: p, Agg: receipt.AggID{First: 5, Last: 6}, PktCnt: 4},
			B: receipt.AggReceipt{Path: p, Agg: receipt.AggID{First: 5, Last: 6}, PktCnt: 5}},
	}
	var j Joiner
	if n := j.patchUp(pairs); n != 0 {
		t.Fatalf("PatchUp migrated %d without windows", n)
	}
}

// TestJoinerPinsNoStaleWindows: after a long join and then a short one,
// the pair scratch beyond the short join's pairs references no AggTrans
// window — a reused Joiner keeps nothing alive that its latest result
// does not hold.
func TestJoinerPinsNoStaleWindows(t *testing.T) {
	cfg := Config{CutRate: 0.001, WindowNS: 10_000}
	a, b := runPair(cfg, cfg, randomStream(17, 50000), randomStream(17, 50000))
	var j Joiner
	if pairs, _ := j.Join(a, b); len(pairs) < 10 || len(pairs[0].A.AggTrans) == 0 {
		t.Fatalf("long join: %d pairs", len(pairs))
	}
	j.Join(a[:1], b[:1])
	for i, p := range j.pairs[len(j.pairs):cap(j.pairs)] {
		if p.A.AggTrans != nil || p.B.AggTrans != nil {
			t.Fatalf("scratch pair %d past the latest join still references an AggTrans window", len(j.pairs)+i)
		}
	}
}

func TestPartitionAlgebraTable1(t *testing.T) {
	// The paper's Table 1, verbatim.
	p1, p2, p3, p4 := uint64(1), uint64(2), uint64(3), uint64(4)
	A1 := Partition{{p1}, {p2}, {p3}, {p4}}
	A2 := Partition{{p1, p2}, {p3, p4}}
	A3 := Partition{{p1}, {p2, p3}, {p4}}
	A3p := Partition{{p1}, {p2}, {p3, p4}}
	A4 := Partition{{p1, p2, p3, p4}}

	coarser := []struct {
		hi, lo Partition
		name   string
	}{
		{A2, A1, "A2>=A1"},
		{A3, A1, "A3>=A1"},
		{A4, A2, "A4>=A2"},
		{A4, A3, "A4>=A3"},
		{A2, A3p, "A2>=A3'"},
	}
	for _, c := range coarser {
		if !c.hi.Coarser(c.lo) {
			t.Errorf("%s should hold", c.name)
		}
	}
	// "Not all partitions have a >= relationship": A2 vs A3.
	if A2.Coarser(A3) || A3.Coarser(A2) {
		t.Error("A2 and A3 must be incomparable")
	}
	joins := []struct {
		a, b, want Partition
		name       string
	}{
		{A1, A2, A2, "Join(A1,A2)=A2"},
		{A2, A3, A4, "Join(A2,A3)=A4"},
		{A2, A3p, A2, "Join(A2,A3')=A2"},
	}
	for _, j := range joins {
		got := j.a.JoinWith(j.b)
		if !got.Equal(j.want) {
			t.Errorf("%s: got %v", j.name, got)
		}
		// Join is symmetric.
		if !j.b.JoinWith(j.a).Equal(j.want) {
			t.Errorf("%s reversed: got %v", j.name, j.b.JoinWith(j.a))
		}
	}
}

func TestPartitionCoarserRejectsDifferentSets(t *testing.T) {
	a := Partition{{1, 2}}
	b := Partition{{1}, {3}}
	if a.Coarser(b) {
		t.Error("partitions of different sets must be incomparable")
	}
}

func BenchmarkJoin(b *testing.B) {
	stream := randomStream(16, 200000)
	cfg := Config{CutRate: 0.001, WindowNS: 10_000}
	a, bb := runPair(cfg, Config{CutRate: 0.005, WindowNS: 10_000}, stream, stream)
	var j Joiner
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Join(a, bb)
	}
}

// BenchmarkJoinShort joins mesh-shaped sequences: 1–4 aggregates per
// side and AggTrans windows of at most 23 records, the lists a verifier
// joins for most (key, adjacent HOP pair)s of a Clos epoch.
func BenchmarkJoinShort(b *testing.B) {
	type input struct{ a, b []receipt.AggReceipt }
	var inputs []input
	for seed := uint64(1); len(inputs) < 256; seed++ {
		// Windows of 3 to 23 records: both sides of the 16 a list once
		// needed to be hashed rather than scanned.
		cfg := Config{CutRate: 0.03, WindowNS: 1000 * int64(1+seed%11)}
		up := randomStream(seed, 80)
		down := slices.Clone(up)
		down[40].id, down[41].id = down[41].id, down[40].id
		a, bb := runPair(cfg, cfg, up, down)
		short := func(rs []receipt.AggReceipt) bool {
			for _, r := range rs {
				if len(r.AggTrans) > 23 {
					return false
				}
			}
			return len(rs) >= 1 && len(rs) <= 4
		}
		if short(a) && short(bb) {
			inputs = append(inputs, input{a, bb})
		}
	}
	var j Joiner
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in := &inputs[i%len(inputs)]
		j.Join(in.a, in.b)
	}
}

// unmix inverts hashing.Mix64 (the SplitMix64 finalizer): each
// xorshift is undone by xoring in its further shifts, each odd
// multiplier by its inverse mod 2⁶⁴.
func unmix(y uint64) uint64 {
	inv := func(c uint64) uint64 {
		x := c // correct to 3 bits; each Newton step doubles that
		for range 5 {
			x *= 2 - c*x
		}
		return x
	}
	y ^= y>>31 ^ y>>62
	y *= inv(0x94d049bb133111eb)
	y ^= y>>27 ^ y>>54
	y *= inv(0xbf58476d1ce4e5b9)
	y ^= y>>30 ^ y>>60
	return y
}

// TestJoinTableResistsCraftedIDs: PktIDs are digests a lying HOP picks,
// so a HOP that knows the slot function can send a window whose IDs all
// hash to one slot. Under the table's seeded mix they still spread: the
// longest run of occupied slots stays short.
func TestJoinTableResistsCraftedIDs(t *testing.T) {
	const n = 4096
	mask := uint64(2*n - 1) // the table a 4096-record window gets
	window := make([]receipt.SampleRecord, n)
	for i := range window {
		id := unmix(uint64(i+1) << 13)
		if hashing.Mix64(id)&mask != 0 {
			t.Fatalf("crafted ID %d lands in slot %d of the unseeded mix, want 0", i, hashing.Mix64(id)&mask)
		}
		window[i] = receipt.SampleRecord{PktID: id, TimeNS: int64(i)}
	}
	cut := window[n/2].PktID
	p := testPath()
	seq := []receipt.AggReceipt{
		{Path: p, Agg: receipt.AggID{First: window[0].PktID, Last: window[n/2-1].PktID}, PktCnt: n / 2, AggTrans: window},
		{Path: p, Agg: receipt.AggID{First: cut, Last: window[n-1].PktID}, PktCnt: n / 2},
	}
	var j Joiner
	pairs, migrations := j.Join(seq, seq)
	if want := oracleJoin(seq, seq); migrations != oraclePatchUp(want) || !reflect.DeepEqual(pairs, want) {
		t.Fatalf("join of the crafted window differs from the oracle")
	}
	if got := uint64(len(j.first.slots)); got != mask+1 {
		t.Fatalf("table has %d slots after a %d-record window, want %d", got, n, mask+1)
	}
	longest, run := 0, 0
	for _, s := range slices.Concat(j.first.slots, j.first.slots) { // twice round: a run may wrap
		if s.gen != j.first.gen {
			run = 0
			continue
		}
		run++
		longest = max(longest, min(run, n))
	}
	if longest > 128 {
		t.Fatalf("crafted IDs form a run of %d occupied slots, want ≤ 128", longest)
	}
	t.Logf("longest run of occupied slots: %d", longest)
}

// TestJoinGenerationWrap: the table's generation wraps to zero after
// 2³² lists, which clears it. A Joiner whose table holds another list's
// IDs under the generation the wrap restarts at is wound to the last
// generation, then joins a long, a short and a long input; every result
// must match the oracle.
func TestJoinGenerationWrap(t *testing.T) {
	stream := randomStream(18, 30000)
	down := slices.Clone(stream)
	for i := 100; i+1 < len(down); i += 37 {
		down[i].id, down[i+1].id = down[i+1].id, down[i].id
	}
	cfg := Config{CutRate: 0.002, WindowNS: 20_000}
	a, b := runPair(cfg, Config{CutRate: 0.004, WindowNS: 30_000}, stream, down)
	c, d := runPair(cfg, cfg, stream, down)
	bare := func(rs []receipt.AggReceipt) []receipt.AggReceipt {
		out := slices.Clone(rs)
		for i := range out {
			out[i].AggTrans = nil
		}
		return out
	}
	var j Joiner
	// Without windows the patch-up indexes nothing: the table's one list
	// is b's First IDs in reverse order, in the first generation.
	backwards := bare(b)
	slices.Reverse(backwards)
	j.Join(bare(a), backwards)
	j.first.gen = math.MaxUint32
	for i, in := range [][2][]receipt.AggReceipt{{a, b}, {c[:2], d[:2]}, {c, d}} {
		want := oracleJoin(in[0], in[1])
		wantMig := oraclePatchUp(want)
		got, gotMig := j.Join(in[0], in[1])
		if gotMig != wantMig || !reflect.DeepEqual(got, want) {
			t.Fatalf("join %d after the wrap: %d migrations, oracle %d; pairs equal: %v", i, gotMig, wantMig, reflect.DeepEqual(got, want))
		}
		if wantMig == 0 && i != 1 {
			t.Fatalf("join %d: no migrations, so the patch-up's lookups went untested", i)
		}
	}
	if j.first.gen == 0 || j.first.gen > 1<<20 {
		t.Fatalf("generation %d after three joins: it never wrapped", j.first.gen)
	}
}

// joinInput draws aggregate receipt sequences from fuzz bytes (zeros
// once they run out).
type joinInput struct{ b []byte }

func (in *joinInput) next() int {
	if len(in.b) == 0 {
		return 0
	}
	c := in.b[0]
	in.b = in.b[1:]
	return int(c)
}

// sequences builds an upstream and a downstream receipt sequence over
// one stream of up to maxPkts packets. Digests come from a 32-value
// space, so First digests repeat. Each position may be a cut at both
// HOPs or at one only; from a drawn aggregate on, either side's
// receipts switch PathID; each closed aggregate carries an AggTrans
// window around its cut, and the downstream window may have the cut
// packet swapped with the packet before it — a packet seen on the
// other side of the cut.
func (in *joinInput) sequences(maxPkts int) (a, b []receipt.AggReceipt) {
	n := 2 + in.next()%(maxPkts-1)
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(1 + in.next()%32)
	}
	const (
		cutA = 1 << iota
		cutB
	)
	cuts := make([]int, n)
	for i := 1; i < n; i++ {
		switch in.next() % 4 {
		case 1:
			cuts[i] = cutA | cutB
		case 2:
			cuts[i] = cutA
		case 3:
			cuts[i] = cutB
		}
	}
	half := in.next() % 12
	other := testPath()
	other.NextHOP++
	side := func(bit int, downstream bool) []receipt.AggReceipt {
		switchAt := in.next() % 16
		var out []receipt.AggReceipt
		start := 0
		closeAt := func(end int) {
			r := receipt.AggReceipt{Path: testPath(), Agg: receipt.AggID{First: ids[start], Last: ids[end-1]}, PktCnt: uint64(end - start)}
			if len(out) >= switchAt && switchAt > 0 {
				r.Path = other
			}
			if downstream && r.PktCnt > 1 {
				r.PktCnt -= uint64(in.next() % 2) // a loss
			}
			if end < n && half > 0 {
				for i := max(start, end-half); i < min(n, end+half+1); i++ {
					r.AggTrans = append(r.AggTrans, receipt.SampleRecord{PktID: ids[i], TimeNS: int64(i)})
				}
				if cut := end - max(start, end-half); downstream && cut > 0 && in.next()%2 == 1 {
					r.AggTrans[cut-1], r.AggTrans[cut] = r.AggTrans[cut], r.AggTrans[cut-1]
				}
			}
			out = append(out, r)
			start = end
		}
		for i := 1; i < n; i++ {
			if cuts[i]&bit != 0 {
				closeAt(i)
			}
		}
		closeAt(n)
		return out
	}
	return side(cutA, false), side(cutB, true)
}

// FuzzJoinMatchesOracle holds the Joiner to the allocating reference
// join and patch-up: the same pairs, AggTrans contents included, and the
// same migration count — on one Joiner reused across a long input and
// then a short one, so scratch left over from the first call shows.
func FuzzJoinMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{40, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 1, 2, 2, 3, 3, 3, 5, 7, 1, 1, 0, 2, 1, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &joinInput{b: data}
		var j Joiner
		for _, maxPkts := range []int{64, 24} {
			a, b := in.sequences(maxPkts)
			want := oracleJoin(a, b)
			wantMig := oraclePatchUp(want)
			got, gotMig := j.Join(a, b)
			if gotMig != wantMig {
				t.Fatalf("%d-packet stream: %d migrations, oracle %d", maxPkts, gotMig, wantMig)
			}
			if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%d-packet stream: pairs differ\n got %+v\nwant %+v\n  a %+v\n  b %+v", maxPkts, got, want, a, b)
			}
		}
	})
}
