package sampling_test

import (
	"reflect"
	"testing"

	"vpm/internal/core"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/sampling"
	"vpm/internal/stats"
)

// onePathCollector returns a collector whose table puts every packet
// of pkt's shape on one path, and that path's PathID.
func onePathCollector(t *testing.T, cfg sampling.Config, pkt *packet.Packet) (*core.Collector, receipt.PathID) {
	t.Helper()
	table := packet.NewTable([]packet.Prefix{
		packet.MakePrefix(10, 1, 0, 0, 16),
		packet.MakePrefix(172, 16, 0, 0, 16),
	})
	key, ok := table.Classify(pkt)
	if !ok {
		t.Fatal("test packet is unclassified")
	}
	pathID := func(k packet.PathKey) receipt.PathID {
		return receipt.PathID{Key: k, PrevHOP: 4, NextHOP: 5, MaxDiffNS: 2_000_000}
	}
	col, err := core.NewCollector(core.CollectorConfig{
		HOP:         4,
		Table:       table,
		PathID:      pathID,
		Sampling:    cfg,
		Aggregation: core.DefaultAggregationConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return col, pathID(key)
}

// TestObserveBatchMatchesObserve holds Algorithm 1's batch path — the
// collector's ObserveBatch, which buffers and samples a path's records
// in bulk — to the literal per-packet Sampler.Observe: the same stream
// cut into uneven batches yields the same sample receipts.
func TestObserveBatchMatchesObserve(t *testing.T) {
	cfg := sampling.Config{MarkerRate: 0.01, SampleRate: 0.3}
	pkt := packet.Packet{Src: [4]byte{10, 1, 2, 3}, Dst: [4]byte{172, 16, 4, 5}}
	for seed := uint64(1); seed <= 5; seed++ {
		r := stats.NewRNG(seed)
		obs := make([]netsim.Observation, 20_000)
		for i := range obs {
			obs[i] = netsim.Observation{Pkt: &pkt, Digest: r.Uint64(), TimeNS: int64(i)}
		}

		serial := sampling.New(cfg)
		for _, o := range obs {
			serial.Observe(o.Digest, o.TimeNS)
		}
		want := serial.Take()
		if len(want) == 0 {
			t.Fatalf("seed %d: the stream samples nothing", seed)
		}

		// Uneven batch sizes exercise segments that straddle batch
		// boundaries and batches with zero or many markers.
		for _, batch := range []int{1, 7, 100, 4096, len(obs)} {
			col, path := onePathCollector(t, cfg, &pkt)
			for off := 0; off < len(obs); off += batch {
				col.ObserveBatch(obs[off:min(off+batch, len(obs))])
			}
			samples, _ := col.Drain()
			if len(samples) != 1 || samples[0].Path != path {
				t.Fatalf("seed %d batch %d: %d sample receipts, want one for the path", seed, batch, len(samples))
			}
			if got := samples[0].Samples; !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d batch %d: batched samples diverge from serial (%d vs %d records)",
					seed, batch, len(got), len(want))
			}
			if observed, unclassified := col.Stats(); observed != uint64(len(obs)) || unclassified != 0 {
				t.Fatalf("seed %d batch %d: stats (%d,%d), want (%d,0)", seed, batch, observed, unclassified, len(obs))
			}
		}
	}
}
