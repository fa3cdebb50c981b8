package core

import (
	"bytes"
	"reflect"
	"testing"

	"vpm/internal/hashing"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// evictWorld builds a tiny deployment-free workload with two disjoint
// key populations: nKeys "wave A" source prefixes and nKeys "wave B"
// ones, all toward a single destination prefix.
func evictWorld(nKeys int) (*packet.Table, []packet.Packet, []packet.Packet) {
	prefixes := []packet.Prefix{packet.MakePrefix(172, 16, 0, 0, 16)}
	for i := 0; i < 2*nKeys; i++ {
		prefixes = append(prefixes, packet.MakePrefix(10, 0, byte(i), 0, 24))
	}
	table := packet.NewTable(prefixes)
	mk := func(wave int) []packet.Packet {
		var pkts []packet.Packet
		for i := 0; i < nKeys; i++ {
			for j := 0; j < 64; j++ {
				pkts = append(pkts, packet.Packet{
					Src:  [4]byte{10, 0, byte(wave*nKeys + i), byte(j + 1)},
					Dst:  [4]byte{172, 16, 1, 1},
					IPID: uint16(wave*10_000 + i*64 + j),
				})
			}
		}
		return pkts
	}
	return table, mk(0), mk(1)
}

func evictCfg(table *packet.Table, idleEpochs int) CollectorConfig {
	return CollectorConfig{
		HOP:   4,
		Table: table,
		PathID: func(key packet.PathKey) receipt.PathID {
			return receipt.PathID{Key: key, PrevHOP: 3, NextHOP: 5, MaxDiffNS: 3_000_000}
		},
		Sampling:        DefaultSamplingConfig(),
		Aggregation:     DefaultAggregationConfig(),
		EvictIdleEpochs: idleEpochs,
	}
}

// feedWave feeds one wave's packets at 10µs spacing starting at t0,
// returning the next free timestamp.
func feedWave(col eitherCollector, pkts []packet.Packet, t0 int64) int64 {
	obs := make([]netsim.Observation, len(pkts))
	for i := range pkts {
		obs[i] = netsim.Observation{
			Pkt:    &pkts[i],
			Digest: hashing.Mix64(uint64(pkts[i].IPID) + 1),
			TimeNS: t0 + int64(i)*10_000,
		}
	}
	col.ObserveBatch(obs)
	return t0 + int64(len(pkts))*10_000
}

// TestEvictIdlePaths: with EvictIdleEpochs = 2, paths that stop seeing
// traffic are dropped from the monitoring cache after two idle Drains,
// their open aggregates force-flushed into that Drain so no packet
// count is lost; reference and deployed collectors evict identically.
func TestEvictIdlePaths(t *testing.T) {
	const nKeys = 8
	table, waveA, waveB := evictWorld(nKeys)

	run := func(col eitherCollector) (activeAfter int, total uint64, stream []byte) {
		t0 := feedWave(col, waveA, 0)
		count := func(aggs []receipt.AggReceipt) {
			for _, a := range aggs {
				total += a.PktCnt
			}
		}
		encode := func(samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
			for _, r := range samples {
				stream = r.AppendBinary(stream)
			}
			for _, r := range aggs {
				stream = r.AppendBinary(stream)
			}
		}
		s, a := col.Drain() // epoch 1: wave A active
		count(a)
		encode(s, a)
		for e := 0; e < 3; e++ { // epochs 2..4: only wave B
			t0 = feedWave(col, waveB, t0)
			s, a = col.Drain()
			count(a)
			encode(s, a)
		}
		activeAfter = col.Memory().ActivePaths
		s, a = col.Flush()
		count(a)
		encode(s, a)
		return activeAfter, total, stream
	}

	reference := newReferenceCollector(t, evictCfg(table, 2))
	deployed, err := NewCollector(evictCfg(table, 2))
	if err != nil {
		t.Fatal(err)
	}
	keep := newReferenceCollector(t, evictCfg(table, 0))

	activeReference, totalReference, streamReference := run(reference)
	activeDeployed, totalDeployed, streamDeployed := run(deployed)
	activeKeep, totalKeep, _ := run(keep)

	if activeReference != nKeys {
		t.Errorf("reference: %d active paths after idle epochs, want %d (wave A evicted)", activeReference, nKeys)
	}
	if activeDeployed != nKeys {
		t.Errorf("deployed: %d active paths after idle epochs, want %d", activeDeployed, nKeys)
	}
	if activeKeep != 2*nKeys {
		t.Errorf("no-eviction baseline: %d active paths, want %d", activeKeep, 2*nKeys)
	}

	// Every classified packet is counted exactly once regardless of
	// eviction: the idle-timeout flush reports open aggregates, it does
	// not drop them.
	want := uint64(len(waveA) + 3*len(waveB))
	if totalReference != want || totalDeployed != want || totalKeep != want {
		t.Errorf("aggregate packet counts: reference %d deployed %d keep %d, want %d",
			totalReference, totalDeployed, totalKeep, want)
	}

	if !bytes.Equal(streamReference, streamDeployed) {
		t.Error("reference and deployed receipt streams differ under eviction")
	}
}

// TestEvictResurrection: a key that goes idle, is evicted, and then
// resumes gets fresh state and keeps reporting — eviction must not
// leave a cached state index pointing at deleted state.
func TestEvictResurrection(t *testing.T) {
	const nKeys = 4
	table, waveA, waveB := evictWorld(nKeys)
	cfg := evictCfg(table, 1)
	col, err := NewCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	count := func(aggs []receipt.AggReceipt) {
		for _, a := range aggs {
			total += a.PktCnt
		}
	}
	t0 := feedWave(col, waveA, 0)
	_, a := col.Drain()
	count(a)
	t0 = feedWave(col, waveB, t0) // A idle → evicted on next Drain
	_, a = col.Drain()
	count(a)
	if got := col.Memory().ActivePaths; got != nKeys {
		t.Fatalf("%d active paths after eviction, want %d", got, nKeys)
	}
	t0 = feedWave(col, waveA, t0) // A resumes with fresh state
	_ = t0
	if got := col.Memory().ActivePaths; got != 2*nKeys {
		t.Fatalf("%d active paths after resurrection, want %d", got, 2*nKeys)
	}
	_, a = col.Flush()
	count(a)
	if want := uint64(2*len(waveA) + len(waveB)); total != want {
		t.Fatalf("counted %d packets across evict/resume, want %d", total, want)
	}
}

// TestEvictSlotReuse: an evicted path's state slot goes to the next new
// path, and the classification cache entries that still held the
// slot's index must not deliver the old path's packets into it. Wave A
// is evicted, wave B takes A's slots, then A's address pairs — all
// still cached — arrive again: they must reach fresh A states, and
// every path's aggregates must count its own packets only.
func TestEvictSlotReuse(t *testing.T) {
	const nKeys = 3
	table, waveA, waveB := evictWorld(nKeys)
	cfg := evictCfg(table, 1)
	col, err := NewCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[packet.PathKey]uint64{}
	count := func(_ []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
		for _, a := range aggs {
			counts[a.Path.Key] += a.PktCnt
		}
	}
	slots := func() map[uint32]bool {
		out := map[uint32]bool{}
		for i := range col.hot {
			if col.hot[i].flags&pathLive != 0 {
				out[uint32(i)] = true
			}
		}
		return out
	}

	t0 := feedWave(col, waveA, 0)
	slotsA := slots()
	count(col.Drain()) // A was active
	count(col.Drain()) // A idle for one Drain → evicted, slots freed
	if got := col.Memory().ActivePaths; got != 0 {
		t.Fatalf("%d active paths after eviction, want 0", got)
	}
	t0 = feedWave(col, waveB, t0)
	if slotsB := slots(); !reflect.DeepEqual(slotsB, slotsA) {
		t.Fatalf("wave B took slots %v, want wave A's freed %v", slotsB, slotsA)
	}
	feedWave(col, waveA, t0)
	if got := col.Memory().ActivePaths; got != 2*nKeys {
		t.Fatalf("%d active paths after wave A resumed, want %d", got, 2*nKeys)
	}
	count(col.Flush())

	if len(counts) != 2*nKeys {
		t.Fatalf("aggregates name %d paths, want %d", len(counts), 2*nKeys)
	}
	for key, got := range counts {
		want := uint64(len(waveB) / nKeys)
		if key.Src.Addr[2] < nKeys { // wave A: delivered twice
			want *= 2
		}
		if got != want {
			t.Errorf("path %v counted %d packets, want %d", key, got, want)
		}
	}
}
