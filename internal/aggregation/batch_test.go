package aggregation_test

import (
	"reflect"
	"testing"

	"vpm/internal/aggregation"
	"vpm/internal/core"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
)

// TestObserveBatchMatchesObserve holds Algorithm 2's batch path — the
// collector's ObserveBatch, which partitions a path's records and
// keeps their AggTrans window in bulk — to the literal per-packet
// Partitioner.Observe: the same stream cut into uneven batches yields
// the same aggregate receipts, AggTrans included.
func TestObserveBatchMatchesObserve(t *testing.T) {
	table := packet.NewTable([]packet.Prefix{
		packet.MakePrefix(10, 1, 0, 0, 16),
		packet.MakePrefix(172, 16, 0, 0, 16),
	})
	pkt := packet.Packet{Src: [4]byte{10, 1, 2, 3}, Dst: [4]byte{172, 16, 4, 5}}
	key, ok := table.Classify(&pkt)
	if !ok {
		t.Fatal("test packet is unclassified")
	}
	pathID := func(k packet.PathKey) receipt.PathID {
		return receipt.PathID{Key: k, PrevHOP: 4, NextHOP: 5, MaxDiffNS: 2_000_000}
	}
	for _, cfg := range []aggregation.Config{
		{CutRate: 0.01, WindowNS: 50_000},
		{CutRate: 0.05, WindowNS: 5_000},
		{CutRate: 0.01, WindowNS: 0},
	} {
		for seed := uint64(1); seed <= 4; seed++ {
			r := stats.NewRNG(seed)
			obs := make([]netsim.Observation, 20_000)
			for i := range obs {
				obs[i] = netsim.Observation{Pkt: &pkt, Digest: r.Uint64(), TimeNS: int64(i) * 1000}
			}

			var serial aggregation.Partitioner
			serial.Init(cfg, pathID(key))
			for _, o := range obs {
				serial.Observe(o.Digest, o.TimeNS)
			}
			want := serial.Flush(nil)

			for _, batch := range []int{1, 7, 100, 4096, len(obs)} {
				col, err := core.NewCollector(core.CollectorConfig{
					HOP:         4,
					Table:       table,
					PathID:      pathID,
					Sampling:    core.DefaultSamplingConfig(),
					Aggregation: cfg,
				})
				if err != nil {
					t.Fatal(err)
				}
				for off := 0; off < len(obs); off += batch {
					col.ObserveBatch(obs[off:min(off+batch, len(obs))])
				}
				_, got := col.Flush()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cfg %+v seed %d batch %d: batched receipts diverge from serial (%d vs %d receipts)",
						cfg, seed, batch, len(got), len(want))
				}
			}
		}
	}
}
