package netsim

import (
	"cmp"
	"encoding/binary"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"vpm/internal/lossmodel"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
)

// FuzzArrivalOrder: the arrival sort orders any event list exactly as
// a stable sort by time does — nearly ordered input through insertion
// alone, anything else through the fallback once the move budget is
// spent. Each input byte pair is one event's time, big-endian; its
// packet index is its position, so a tie out of insertion order shows.
// The same input, split in two and each half sorted, checks that
// withhold merges a pending run and a newly withheld run as a stable
// sort of the two concatenated would.
func FuzzArrivalOrder(f *testing.F) {
	f.Add([]byte{0, 7, 0, 7, 0, 7, 0, 3, 0, 7, 0, 3})
	byTime := func(a, b hopObservation) int { return cmp.Compare(a.timeNS, b.timeNS) }
	f.Fuzz(func(t *testing.T, data []byte) {
		events := make([]hopObservation, len(data)/2)
		for i := range events {
			events[i] = hopObservation{pktIdx: int32(i), timeNS: int64(binary.BigEndian.Uint16(data[2*i:]))}
		}
		want := slices.Clone(events)
		slices.SortStableFunc(want, byTime)
		halves := slices.Clone(events)
		sortArrivals(events)
		if !slices.Equal(events, want) {
			t.Fatalf("arrival sort of %d events differs from a stable sort by time:\ngot  %v\nwant %v", len(events), events, want)
		}

		// Packet i's digest is i: a pending observation carries it, a
		// newly withheld one looks it up.
		pkts := make([]packet.Packet, len(halves))
		digests := make([]uint64, len(halves))
		for i := range digests {
			digests[i] = uint64(i)
		}
		old, tail := halves[:len(halves)/2], halves[len(halves)/2:]
		slices.SortStableFunc(old, byTime)
		slices.SortStableFunc(tail, byTime)
		var pend []pendingObs
		for _, e := range old {
			pend = append(pend, pendingObs{digest: digests[e.pktIdx], timeNS: e.timeNS})
		}
		got := withhold(pend, tail, pkts, digests)
		slices.SortStableFunc(halves, byTime)
		if len(got) != len(halves) {
			t.Fatalf("withhold kept %d of %d observations", len(got), len(halves))
		}
		for i, e := range halves {
			if got[i].digest != uint64(e.pktIdx) || got[i].timeNS != e.timeNS {
				t.Fatalf("withheld observation %d is (%d, %d), want (%d, %d)", i, got[i].digest, got[i].timeNS, e.pktIdx, e.timeNS)
			}
		}
	})
}

// TestUnobservedHOPsRecordNothing: a HOP without an observer records no
// events, and the HOPs that are observed receive exactly the streams
// they receive when every HOP is observed — over a lossy ECMP mesh,
// segment by segment, with observations withheld across boundaries.
func TestUnobservedHOPsRecordNothing(t *testing.T) {
	keys := TopoKeys(4)
	build := func() *Topology {
		topo := ClosTopology(9, 2, 2, keys)
		ll, err := lossmodel.FromTargetLoss(0.03, 4, stats.NewRNG(6))
		if err != nil {
			t.Fatal(err)
		}
		topo.Links[0].Loss = ll
		return topo
	}
	tc, pkts := topoTrace(t, keys, 20000, 4e8)
	nHops := build().NumHOPs()

	allObs, allRec := recorders(nHops)
	someObs, someRec := recorders(nHops)
	for h := range someObs {
		if h%3 != 0 {
			delete(someObs, h)
		}
	}
	all, err := NewTopoRunner(build(), tc.Table())
	if err != nil {
		t.Fatal(err)
	}
	some, err := NewTopoRunner(build(), tc.Table())
	if err != nil {
		t.Fatal(err)
	}
	const nSeg = 4
	withheld := 0
	start := 0
	for s := 1; s <= nSeg+1; s++ {
		horizon := int64(1) << 62
		end := len(pkts)
		if s <= nSeg {
			horizon = int64(s) * 4e8 / nSeg
			end = start
			for end < len(pkts) && pkts[end].SentAt < horizon {
				end++
			}
		}
		if _, err := all.RunSegment(pkts[start:end], allObs, horizon); err != nil {
			t.Fatal(err)
		}
		if _, err := some.RunSegment(pkts[start:end], someObs, horizon); err != nil {
			t.Fatal(err)
		}
		start = end
		for h := 1; h <= nHops; h++ {
			if someObs[receipt.HOPID(h)] == nil {
				if n := some.hints[h]; n != 0 {
					t.Fatalf("segment %d: unobserved HOP %d recorded %d events", s, h, n)
				}
				continue
			}
			withheld += len(some.rep.pending[h])
		}
	}
	if withheld == 0 {
		t.Fatal("no observation was withheld across a segment boundary")
	}
	for h := range someObs {
		a, b := allRec[h].got, someRec[h].got
		if len(a) == 0 || !slices.Equal(a, b) {
			t.Fatalf("%v: %d observations observing every HOP, %d observing a third; streams differ", h, len(a), len(b))
		}
	}
}

// TestRunSegmentAllocsFlatInPackets: in steady state a segment costs
// the same number of allocations at 5 000 and at 50 000 packets — its
// per-HOP event lists and per-domain true delays are sized once from
// the previous segment, not grown append by append.
func TestRunSegmentAllocsFlatInPackets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector include its own")
	}
	// One P, as in testing.AllocsPerRun: with several, a goroutine that
	// exits on another P leaves its descriptor there, and the next
	// spawn allocates one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// No GC cycle inside a window: after each cycle the runtime runs the
	// unique package's map cleanup on a goroutine of its own, which
	// allocates two 24-byte objects that would count as the segment's.
	// At 50 000 packets a cycle lands in most windows, under load in all
	// of them. Each size starts from a collected heap instead.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const warm, measured = 2, 4
	// A second's worth of packets to spare at 100 kpps.
	pkts := testTrace(t, 100000, int64((warm+measured+2)*50000*1e4))
	if len(pkts) <= (warm+measured)*50000 {
		t.Fatalf("trace has %d packets, want more than %d", len(pkts), (warm+measured)*50000)
	}
	allocs := func(perSeg int) uint64 {
		runtime.GC()
		tr, err := NewRunner(Fig1Path(5))
		if err != nil {
			t.Fatal(err)
		}
		obs := make(map[receipt.HOPID]Observer, 8)
		for h := 1; h <= 8; h++ {
			obs[receipt.HOPID(h)] = nopObserver{h}
		}
		least := ^uint64(0)
		var before, after runtime.MemStats
		for s := 0; s < warm+measured; s++ {
			seg := pkts[s*perSeg : (s+1)*perSeg]
			runtime.ReadMemStats(&before)
			if _, err := tr.RunSegment(seg, obs, pkts[(s+1)*perSeg].SentAt); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if s >= warm {
				least = min(least, after.Mallocs-before.Mallocs)
			}
		}
		return least
	}
	small, large := allocs(5000), allocs(50000)
	t.Logf("allocations per segment: %d at 5 000 packets, %d at 50 000", small, large)
	if small != large {
		t.Fatalf("a segment allocates %d objects at 5 000 packets and %d at 50 000, want the same", small, large)
	}
}
