package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"vpm/internal/aggregation"
	"vpm/internal/hashing"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/sampling"
	"vpm/internal/stats"
)

// referenceCollector is the per-packet reference implementation of one
// HOP's data-plane module: Algorithms 1 and 2 as the literal per-packet
// sampling.Sampler and aggregation.Partitioner, one of each per path in
// a map, with a longest-prefix match and a map lookup for every
// observation and nothing cached, batched, grouped or shared — the §7.1
// budget spelled out literally. It shares no path state, buffer or
// drain code with the deployed Collector (collector.go), which is what
// the equivalence tests hold the Collector to, receipt for receipt.
type referenceCollector struct {
	cfg   CollectorConfig
	paths map[packet.PathKey]*referencePath
	epoch EpochID

	observed     uint64
	unclassified uint64
}

// referencePath is one path's state in the referenceCollector.
type referencePath struct {
	id      receipt.PathID
	sampler *sampling.Sampler
	part    aggregation.Partitioner
	// touched records an observation since the last Drain; idleDrains
	// counts consecutive untouched Drains (EvictIdleEpochs).
	touched    bool
	idleDrains int
}

// eitherCollector is what a test drives on the deployed Collector and
// the reference alike.
type eitherCollector interface {
	netsim.BatchObserver
	Drain() ([]receipt.SampleReceipt, []receipt.AggReceipt)
	Flush() ([]receipt.SampleReceipt, []receipt.AggReceipt)
	Memory() MemoryStats
}

func newReferenceCollector(t testing.TB, cfg CollectorConfig) *referenceCollector {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return &referenceCollector{cfg: cfg, paths: make(map[packet.PathKey]*referencePath)}
}

func (c *referenceCollector) Observe(pkt *packet.Packet, digest uint64, tNS int64) {
	c.observed++
	key, ok := c.cfg.Table.Classify(pkt)
	if !ok {
		c.unclassified++
		return
	}
	st, ok := c.paths[key]
	if !ok {
		st = &referencePath{id: c.cfg.PathID(key), sampler: sampling.New(c.cfg.Sampling)}
		st.part.Init(c.cfg.Aggregation, st.id)
		c.paths[key] = st
	}
	st.touched = true
	st.part.Observe(digest, tNS)
	st.sampler.Observe(digest, tNS)
}

func (c *referenceCollector) ObserveBatch(batch []netsim.Observation) {
	for i := range batch {
		c.Observe(batch[i].Pkt, batch[i].Digest, batch[i].TimeNS)
	}
}

// Drain takes every path's samples and closed aggregates; a path idle
// for EvictIdleEpochs Drains is flushed into this one and forgotten.
func (c *referenceCollector) Drain() ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	var samples []receipt.SampleReceipt
	var aggs []receipt.AggReceipt
	for key, st := range c.paths {
		if recs := st.sampler.Take(); len(recs) > 0 {
			samples = append(samples, receipt.SampleReceipt{Path: st.id, Samples: recs})
		}
		if st.touched {
			st.touched, st.idleDrains = false, 0
		} else if c.cfg.EvictIdleEpochs > 0 {
			if st.idleDrains++; st.idleDrains >= c.cfg.EvictIdleEpochs {
				aggs = st.part.Flush(aggs)
				delete(c.paths, key)
				continue
			}
		}
		aggs = append(aggs, st.part.Take()...)
	}
	return sortReceipts(samples, aggs)
}

func (c *referenceCollector) Flush() ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	var samples []receipt.SampleReceipt
	var aggs []receipt.AggReceipt
	for _, st := range c.paths {
		aggs = st.part.Flush(aggs)
		if recs := st.sampler.Take(); len(recs) > 0 {
			samples = append(samples, receipt.SampleReceipt{Path: st.id, Samples: recs})
		}
	}
	return sortReceipts(samples, aggs)
}

func (c *referenceCollector) RotateInterval() (EpochID, []receipt.SampleReceipt, []receipt.AggReceipt) {
	e := c.epoch
	c.epoch++
	samples, aggs := c.Drain()
	return e, samples, aggs
}

func (c *referenceCollector) CloseEpoch() (EpochID, []receipt.SampleReceipt, []receipt.AggReceipt) {
	e := c.epoch
	c.epoch++
	samples, aggs := c.Flush()
	return e, samples, aggs
}

func (c *referenceCollector) Stats() (observed, unclassified uint64) {
	return c.observed, c.unclassified
}

func (c *referenceCollector) Memory() MemoryStats {
	m := MemoryStats{ActivePaths: len(c.paths)}
	for _, st := range c.paths {
		m.TempBufferPeakEntries = max(m.TempBufferPeakEntries, st.sampler.TempHighWater())
	}
	m.TempBufferPeakBytes = m.TempBufferPeakEntries * receipt.SampleRecordBytes
	return m
}

// sortReceipts puts drained receipts into the canonical deterministic
// order, both stably sorted by PathID only — each path's aggregates
// keep their stream order — and combines sample receipts that share a
// PathID, so a Drain returns one per PathID.
func sortReceipts(samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	slices.SortStableFunc(samples, func(a, b receipt.SampleReceipt) int { return a.Path.Compare(b.Path) })
	slices.SortStableFunc(aggs, func(a, b receipt.AggReceipt) int { return a.Path.Compare(b.Path) })
	out := samples[:0]
	for _, s := range samples {
		if n := len(out); n > 0 && out[n-1].Path == s.Path {
			merged, err := receipt.CombineSamples(out[n-1], s)
			if err != nil {
				panic(err)
			}
			out[n-1] = merged
			continue
		}
		out = append(out, s)
	}
	return out, aggs
}

// zipfWideWorkload builds zipfIntervals × perInterval observations over
// a Zipf(1)-skewed choice among netsim.WideKeys(nKeys), with one packet
// in 53 unclassifiable (both addresses alien, or only the destination).
// The skew leaves most keys idle in any one interval, so a collector
// with EvictIdleEpochs 1 evicts and re-creates path state throughout.
// Three short intervals follow — keys 0–2 only, then key 3 only, then
// keys 0–2 again — in which paths are evicted while nothing has
// displaced them from the classification cache, and then resume.
func zipfWideWorkload(nKeys, zipfIntervals, perInterval int) (*packet.Table, [][]netsim.Observation) {
	keys := netsim.WideKeys(nKeys)
	prefixes := make([]packet.Prefix, 0, 2*nKeys)
	cdf := make([]float64, nKeys)
	sum := 0.0
	for i, k := range keys {
		prefixes = append(prefixes, k.Src, k.Dst)
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	const resumeLen = 600
	total := zipfIntervals*perInterval + 3*resumeLen
	rng := stats.NewRNG(7)
	pkts := make([]packet.Packet, total)
	out := make([][]netsim.Observation, zipfIntervals+3)
	for i := range pkts {
		var interval, k int
		if i < zipfIntervals*perInterval {
			interval = i / perInterval
			k = sort.SearchFloat64s(cdf, rng.Float64()*sum)
		} else {
			r := (i - zipfIntervals*perInterval) / resumeLen
			interval = zipfIntervals + r
			k = i % 3
			if r == 1 {
				k = 3
			}
		}
		pkts[i] = packet.Packet{Src: keys[k].Src.Addr, Dst: keys[k].Dst.Addr, IPID: uint16(i)}
		switch i % 106 {
		case 0:
			pkts[i].Src, pkts[i].Dst = [4]byte{198, 51, 100, byte(i)}, [4]byte{203, 0, 113, byte(i >> 8)}
		case 53:
			pkts[i].Dst = [4]byte{203, 0, 113, byte(i)}
		}
		out[interval] = append(out[interval], netsim.Observation{
			Pkt:    &pkts[i],
			Digest: hashing.Mix64(uint64(i) + 1),
			TimeNS: int64(i) * 10_000,
		})
	}
	return packet.NewTable(prefixes), out
}

// TestPathCollectorMatchesOracle holds the collector every deployment
// gets — classification cache resolving to state indices, sub-batches
// grouped by path, batch hooks — to the per-packet
// referenceCollector, receipt for receipt, on the
// population the Fig1 equivalence tests never reach: thousands of
// skewed keys, cache conflicts, unclassifiable traffic, idle eviction
// at every rotation, and evicted paths that resume.
func TestPathCollectorMatchesOracle(t *testing.T) {
	table, obs := zipfWideWorkload(2048, 4, 20_000)
	cfg := evictCfg(table, 1)

	// batch 0 drives the single-packet Observe shim.
	for _, batch := range []int{0, 1, 7, 4096} {
		oracle := newReferenceCollector(t, cfg)
		col, err := NewCollector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		evicted := false
		for e, interval := range obs {
			for i := range interval {
				oracle.Observe(interval[i].Pkt, interval[i].Digest, interval[i].TimeNS)
			}
			if batch == 0 {
				for i := range interval {
					col.Observe(interval[i].Pkt, interval[i].Digest, interval[i].TimeNS)
				}
			} else {
				for off := 0; off < len(interval); off += batch {
					col.ObserveBatch(interval[off:min(off+batch, len(interval))])
				}
			}
			before := col.Memory().ActivePaths
			var wantEpoch, gotEpoch EpochID
			var wantS, gotS []receipt.SampleReceipt
			var wantA, gotA []receipt.AggReceipt
			if e < len(obs)-1 {
				wantEpoch, wantS, wantA = oracle.RotateInterval()
				gotEpoch, gotS, gotA = col.RotateInterval()
			} else {
				wantEpoch, wantS, wantA = oracle.CloseEpoch()
				gotEpoch, gotS, gotA = col.CloseEpoch()
			}
			if gotEpoch != wantEpoch {
				t.Fatalf("batch %d interval %d: epoch %d, oracle %d", batch, e, gotEpoch, wantEpoch)
			}
			if !reflect.DeepEqual(gotS, wantS) || !reflect.DeepEqual(gotA, wantA) {
				t.Fatalf("batch %d interval %d: receipts differ from the oracle (%d/%d samples, %d/%d aggregates)",
					batch, e, len(gotS), len(wantS), len(gotA), len(wantA))
			}
			if !bytes.Equal(encodeReceipts(gotS, gotA), encodeReceipts(wantS, wantA)) {
				t.Fatalf("batch %d interval %d: receipt wire bytes differ from the oracle", batch, e)
			}
			gotObs, gotUncl := col.Stats()
			wantObs, wantUncl := oracle.Stats()
			if gotObs != wantObs || gotUncl != wantUncl || gotUncl == 0 {
				t.Fatalf("batch %d interval %d: stats (%d, %d), oracle (%d, %d), want unclassified > 0",
					batch, e, gotObs, gotUncl, wantObs, wantUncl)
			}
			active := col.Memory().ActivePaths
			if want := oracle.Memory().ActivePaths; active != want {
				t.Fatalf("batch %d interval %d: %d active paths, oracle %d", batch, e, active, want)
			}
			evicted = evicted || active < before
		}
		if !evicted {
			t.Fatalf("batch %d: no rotation evicted a path; the workload no longer exercises eviction", batch)
		}
	}
}

// sparseGapWorkload builds intervals of observations over a few keys
// whose consecutive packets are often more than j apart, so a path's
// AggTrans window is stale when its next packet arrives: the case in
// which the Partitioner drops the window without reading it. Bursts of
// packets 20µs apart keep other windows live. After some gaps the next
// packet is forced to be a cutting point (gapCuts holds their digests),
// and the last interval ends with one packet of key 0, digest lone,
// after a gap longer than j.
func sparseGapWorkload(j int64) (table *packet.Table, intervals [][]netsim.Observation, gapCuts map[uint64]bool, lone receipt.SampleRecord) {
	const nKeys, nIntervals, perInterval = 6, 4, 3000
	keys := netsim.WideKeys(nKeys)
	var prefixes []packet.Prefix
	for _, k := range keys {
		prefixes = append(prefixes, k.Src, k.Dst)
	}
	rng := stats.NewRNG(11)
	pkts := make([]packet.Packet, 0, nIntervals*perInterval+1)
	last := make([]int64, nKeys)
	seen := make([]bool, nKeys)
	gapCuts = make(map[uint64]bool)
	var now int64
	burstKey, burstLeft := 0, 0
	add := func(interval, k int, digest uint64) {
		pkts = append(pkts, packet.Packet{Src: keys[k].Src.Addr, Dst: keys[k].Dst.Addr})
		intervals[interval] = append(intervals[interval], netsim.Observation{Pkt: &pkts[len(pkts)-1], Digest: digest, TimeNS: now})
		last[k], seen[k] = now, true
	}
	intervals = make([][]netsim.Observation, nIntervals)
	for e := range intervals {
		for range perInterval {
			k := burstKey
			if burstLeft > 0 {
				burstLeft--
				now += 20_000
			} else {
				k = rng.Intn(nKeys)
				now += int64(rng.Intn(int(j / 2)))
				if rng.Intn(50) == 0 {
					burstKey, burstLeft = k, 30
				}
			}
			n := uint64(len(pkts))
			digest := hashing.Mix64(n + 1)
			if seen[k] && now-last[k] > j && rng.Intn(4) == 0 {
				digest = ^n // above any cut threshold
				gapCuts[digest] = true
			}
			add(e, k, digest)
		}
	}
	now += 2 * j
	lone = receipt.SampleRecord{PktID: 1, TimeNS: now} // below any cut threshold
	add(nIntervals-1, 0, lone.PktID)
	return packet.NewTable(prefixes), intervals, gapCuts, lone
}

// TestStaleWindowSkipMatchesOracle holds the collector to the
// per-packet reference on sparse paths, where most observations find
// their path's AggTrans window stale: every drained receipt, AggTrans
// included, must equal the reference's at every batch split; the
// aggregate a cut right after a gap closes must carry no pre-cut
// records, and the Flush right after a gap only the packet that ended
// it.
func TestStaleWindowSkipMatchesOracle(t *testing.T) {
	const j = 1_000_000
	table, obs, gapCuts, lone := sparseGapWorkload(j)
	if len(gapCuts) == 0 {
		t.Fatal("the workload forces no cut right after a gap")
	}
	cfg := evictCfg(table, 0)
	cfg.Aggregation = aggregation.Config{CutRate: 0.05, WindowNS: j}
	for _, batch := range []int{0, 1, 7, 4096} {
		oracle := newReferenceCollector(t, cfg)
		col, err := NewCollector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		byPath := make(map[packet.PathKey][]receipt.AggReceipt)
		for e, interval := range obs {
			oracle.ObserveBatch(interval)
			if batch == 0 {
				for i := range interval {
					col.Observe(interval[i].Pkt, interval[i].Digest, interval[i].TimeNS)
				}
			} else {
				for off := 0; off < len(interval); off += batch {
					col.ObserveBatch(interval[off:min(off+batch, len(interval))])
				}
			}
			var wantS, gotS []receipt.SampleReceipt
			var wantA, gotA []receipt.AggReceipt
			if e < len(obs)-1 {
				_, wantS, wantA = oracle.RotateInterval()
				_, gotS, gotA = col.RotateInterval()
			} else {
				_, wantS, wantA = oracle.CloseEpoch()
				_, gotS, gotA = col.CloseEpoch()
			}
			if !reflect.DeepEqual(gotS, wantS) || !reflect.DeepEqual(gotA, wantA) {
				t.Fatalf("batch %d interval %d: receipts differ from the oracle (%d/%d samples, %d/%d aggregates)",
					batch, e, len(gotS), len(wantS), len(gotA), len(wantA))
			}
			for _, a := range gotA {
				byPath[a.Path.Key] = append(byPath[a.Path.Key], a)
			}
		}
		checked := 0
		for key, aggs := range byPath {
			for i := 1; i < len(aggs); i++ {
				if cut := aggs[i].Agg.First; gapCuts[cut] {
					if got := aggs[i-1].AggTrans; len(got) == 0 || got[0].PktID != cut {
						t.Fatalf("batch %d: %v: the aggregate closed by a cut right after a gap carries pre-cut records: %v", batch, key, got)
					}
					checked++
				}
			}
		}
		if checked == 0 {
			t.Fatalf("batch %d: no aggregate closed by a cut right after a gap", batch)
		}
		aggs := byPath[netsim.WideKeys(1)[0]]
		if got := aggs[len(aggs)-1].AggTrans; !reflect.DeepEqual(got, []receipt.SampleRecord{lone}) {
			t.Fatalf("batch %d: the Flush right after a gap carries AggTrans %v, want only %v", batch, got, lone)
		}
	}
}

// TestNewPathsAllocateNothing: a path's state is an entry of the
// collector's dense slices, so a newly seen key costs no allocation of
// its own — only the amortized growth of slices shared by every path —
// and the slice every observation touches holds no pointer for the
// garbage collector to scan.
func TestNewPathsAllocateNothing(t *testing.T) {
	if hasPointers(reflect.TypeOf(pathHot{})) {
		t.Fatal("pathHot holds a pointer type")
	}
	if raceEnabled {
		t.Skip("allocation counts under the race detector include its own")
	}
	const n = 1 << 14
	keys := netsim.WideKeys(n)
	var prefixes []packet.Prefix
	for _, k := range keys {
		prefixes = append(prefixes, k.Src, k.Dst)
	}
	col, err := NewCollector(evictCfg(packet.NewTable(prefixes), 0))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range keys {
		col.stateIndex(k)
	}
	runtime.ReadMemStats(&after)
	perPath := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%d new paths: %.4f allocations each", n, perPath)
	if perPath > 0.01 || col.live != n {
		t.Fatalf("%d new paths cost %.4f allocations each (%d live), want amortized zero", n, perPath, col.live)
	}
}

func TestClassifyEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(classifyEntry{}); got != 32 {
		t.Fatalf("classifyEntry is %d bytes, want 32: every HOP collector holds %d of them", got, classifyCacheSize)
	}
}

// TestClassifyIndexSpreadsPairs holds the classification cache's index
// to a uniform hash on the address-pair populations a HOP sees: the
// sequential keys one Clos HOP routes, a run of sequential keys, pairs
// that differ in one octet of one address, and random pairs. In each,
// the pairs that land in an occupied slot must stay within three times
// a uniform hash's expectation, plus 16. An index that slices the
// address bits instead piles a one-octet population into a handful of
// slots and fails here.
func TestClassifyIndexSpreadsPairs(t *testing.T) {
	pair := func(src, dst [4]byte) uint64 {
		return uint64(binary.BigEndian.Uint32(src[:]))<<32 | uint64(binary.BigEndian.Uint32(dst[:]))
	}
	type population struct {
		name  string
		pairs []uint64
	}
	var pops []population

	topo := netsim.ClosTopology(1, 8, 4, netsim.WideKeys(4096))
	hop := topo.RouteHOPs(0)[0]
	var routed []uint64
	for _, k := range topo.Keys() {
		for _, r := range topo.RoutesForKey(k) {
			if slices.Contains(topo.RouteHOPs(r), hop) {
				routed = append(routed, pair(k.Src.Addr, k.Dst.Addr))
				break
			}
		}
	}
	if len(routed) != 512 {
		t.Fatalf("Clos(8, 4) HOP %v routes %d of 4096 keys, want 512", hop, len(routed))
	}
	pops = append(pops, population{"keys one Clos(8, 4) HOP routes", routed})

	var seq []uint64
	for _, k := range netsim.WideKeys(4096) {
		seq = append(seq, pair(k.Src.Addr, k.Dst.Addr))
	}
	pops = append(pops, population{"4096 sequential keys", seq})

	for octet := range 8 {
		var one []uint64
		for v := range 256 {
			src, dst := [4]byte{10, 1, 2, 3}, [4]byte{192, 168, 4, 5}
			if octet < 4 {
				src[octet] = byte(v)
			} else {
				dst[octet-4] = byte(v)
			}
			one = append(one, pair(src, dst))
		}
		pops = append(pops, population{fmt.Sprintf("256 pairs varying address octet %d", octet), one})
	}

	rng := stats.NewRNG(7)
	random := make([]uint64, 4096)
	for i := range random {
		random[i] = rng.Uint64()
	}
	pops = append(pops, population{"4096 random pairs", random})

	for _, p := range pops {
		used := make(map[uint64]bool)
		for _, a := range p.pairs {
			used[classifySlot(a)] = true
		}
		collisions := len(p.pairs) - len(used)
		n, m := float64(len(p.pairs)), float64(classifyCacheSize)
		uniform := n - m*(1-math.Pow(1-1/m, n))
		t.Logf("%s: %d collisions, %.1f expected of a uniform hash", p.name, collisions, uniform)
		if float64(collisions) > 3*uniform+16 {
			t.Errorf("%s: %d pairs collide in %d slots, a uniform hash expects %.1f", p.name, collisions, classifyCacheSize, uniform)
		}
	}
}

// TestCollectorScratchIsBounded: the sub-batch scratch is a fixed
// subBatchSize observations per collector whatever the batch size, so a
// process with many HOP collectors does not pay per HOP for its
// batches. Each collector here has taken a full 4096-observation batch
// (176 KiB of sub-batch records and groups, were the scratch sized to
// it); what it keeps afterwards, beyond its classification cache, must
// stay under 32 KiB.
func TestCollectorScratchIsBounded(t *testing.T) {
	const n = 64
	key := netsim.WideKeys(1)[0]
	cfg := evictCfg(packet.NewTable([]packet.Prefix{key.Src, key.Dst}), 0)
	// Frequent markers keep the sampler's own pre-marker buffer (which
	// is per path by design) out of the measurement.
	cfg.Sampling = sampling.Config{MarkerRate: 0.05, SampleRate: 0.01}
	pkt := packet.Packet{Src: key.Src.Addr, Dst: key.Dst.Addr}
	batch := make([]netsim.Observation, netsim.ReplayBatchSize)
	for i := range batch {
		batch[i] = netsim.Observation{Pkt: &pkt, Digest: hashing.Mix64(uint64(i) + 1), TimeNS: int64(i) * 10_000}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	cols := make([]*Collector, n)
	before := liveHeap()
	for i := range cols {
		col, err := NewCollector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		col.ObserveBatch(batch)
		col.Recycle(col.Drain())
		cols[i] = col
	}
	after := liveHeap()
	runtime.KeepAlive(cols)

	perCollector := int64(after-before) / n
	extra := perCollector - int64(unsafe.Sizeof(*cols[0].cache))
	t.Logf("%d B live per collector, %d B beyond its classification cache", perCollector, extra)
	if extra > 32<<10 {
		t.Fatalf("each additional collector keeps %d B beyond its classification cache, want < 32 KiB", extra)
	}
}

// hasPointers reports whether a value of typ holds a pointer.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Array:
		return hasPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return typ.Kind() > reflect.Complex128 // chan, func, interface, map, pointer, slice, string, unsafe pointer
}

// TestDispatchScratchIsPointerFree: the classification cache and every
// sub-batch scratch array hold integers, never pointers. A deployment
// keeps one set per HOP — thousands in one process — and with a
// *pathState in the cache entry or the groups each would be an object
// the garbage collector scans on every cycle.
func TestDispatchScratchIsPointerFree(t *testing.T) {
	if hasPointers(reflect.TypeOf(classifyEntry{})) {
		t.Error("classifyEntry holds a pointer type")
	}
	arrays := 0
	subType := reflect.TypeOf(subBatch{})
	for i := 0; i < subType.NumField(); i++ {
		if f := subType.Field(i); f.Type.Kind() == reflect.Array {
			arrays++
			if hasPointers(f.Type) {
				t.Errorf("subBatch.%s holds a pointer type", f.Name)
			}
		}
	}
	if arrays == 0 {
		t.Fatal("subBatch has no scratch arrays; the test no longer sees the scratch")
	}
}

// modelVisits counts what the collector's dispatch makes of obs fed in
// batch-sized calls: the path-state visits of grouping each
// subBatchSize-observation sub-batch by path (its distinct paths), and
// the runs of consecutive same-path observations in it — the visits of
// a dispatch that run-length-encodes instead.
func modelVisits(ranks []int, batch int) (visits, runs int) {
	for off := 0; off < len(ranks); off += batch {
		call := ranks[off:min(off+batch, len(ranks))]
		for sub := 0; sub < len(call); sub += subBatchSize {
			chunk := call[sub:min(sub+subBatchSize, len(call))]
			distinct := map[int]bool{}
			for i, k := range chunk {
				distinct[k] = true
				if i == 0 || chunk[i-1] != k {
					runs++
				}
			}
			visits += len(distinct)
		}
	}
	return visits, runs
}

// TestGroupByPathMatchesOracle holds the dispatch's grouping — sub-
// batches scattered by path, each path's state visited once with its
// whole group — to the per-packet referenceCollector, receipt for
// receipt, where grouping reorders the most: 300 paths interleaved
// packet by packet, round-robin (every full sub-batch is subBatchSize
// groups of one record, the group table's worst case) and Zipf-skewed,
// at batch sizes around the sub-batch size, with the single-packet
// Observe shim taking every fifth call.
func TestGroupByPathMatchesOracle(t *testing.T) {
	const nKeys, n = 300, 20_000
	next := 0
	zipf := zipfPicker(nKeys, 1.01, 5)
	interleavings := []struct {
		name string
		pick func() int
	}{
		{"round-robin", func() int { next++; return (next - 1) % nKeys }},
		{"zipf", zipf},
	}
	for _, il := range interleavings {
		obs, ranks, cfg := wideWorkload(nKeys, n, il.pick)
		oracle := newReferenceCollector(t, cfg)
		oracle.ObserveBatch(obs[:n/2])
		wantS, wantA := oracle.Drain()
		wantDrain := encodeReceipts(wantS, wantA)
		oracle.ObserveBatch(obs[n/2:])
		wantS, wantA = oracle.Flush()
		wantFlush := encodeReceipts(wantS, wantA)
		if len(wantDrain) == 0 || len(wantFlush) == 0 {
			t.Fatalf("%s: the oracle emitted nothing", il.name)
		}

		for _, batch := range []int{1, 7, 255, 256, 257, 4096} {
			col, err := NewCollector(cfg)
			if err != nil {
				t.Fatal(err)
			}
			feed := func(obs []netsim.Observation) {
				for call, off := 0, 0; off < len(obs); call, off = call+1, off+batch {
					b := obs[off:min(off+batch, len(obs))]
					if call%5 != 4 {
						col.ObserveBatch(b)
						continue
					}
					for i := range b {
						col.Observe(b[i].Pkt, b[i].Digest, b[i].TimeNS)
					}
				}
			}
			feed(obs[:n/2])
			gotS, gotA := col.Drain()
			if !bytes.Equal(encodeReceipts(gotS, gotA), wantDrain) {
				t.Fatalf("%s batch %d: drained receipts differ from the oracle", il.name, batch)
			}
			feed(obs[n/2:])
			gotS, gotA = col.Flush()
			if !bytes.Equal(encodeReceipts(gotS, gotA), wantFlush) {
				t.Fatalf("%s batch %d: flushed receipts differ from the oracle", il.name, batch)
			}
		}

		// The visit count is the model's, so what the Zipf benchmark
		// reports from the same model is what the dispatch does.
		col, err := NewCollector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < n; off += netsim.ReplayBatchSize {
			col.ObserveBatch(obs[off:min(off+netsim.ReplayBatchSize, n)])
		}
		visits, runs := modelVisits(ranks, netsim.ReplayBatchSize)
		if got := col.sub.visits; got != uint64(visits) {
			t.Fatalf("%s: %d path-state visits, want %d (distinct paths per sub-batch)", il.name, got, visits)
		}
		t.Logf("%s: %.3f state visits per observation, %.3f runs per observation", il.name, float64(visits)/n, float64(runs)/n)
		if il.name == "round-robin" && visits != n {
			t.Fatalf("round-robin: %d visits over %d observations; no sub-batch reached %d groups", visits, n, subBatchSize)
		}
	}
}
