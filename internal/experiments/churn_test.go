package experiments

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"vpm/internal/core"
	"vpm/internal/hashing"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// standaloneCollectorConfig is the configuration the experiments that
// drive one collector outside a deployment share (HOP 4 with an
// identity PathID and the default protocol parameters).
func standaloneCollectorConfig(table *packet.Table) core.CollectorConfig {
	return core.CollectorConfig{
		HOP:   4,
		Table: table,
		PathID: func(key packet.PathKey) receipt.PathID {
			return receipt.PathID{Key: key}
		},
		Sampling:    core.DefaultSamplingConfig(),
		Aggregation: core.DefaultAggregationConfig(),
	}
}

// ChurnRow reports the path-churn experiment: a collector fed a fresh
// block of never-seen-before traffic keys every epoch, with idle-path
// eviction bounding the monitoring cache to the active working set.
// The heap figures are live-heap (HeapAlloc after GC) snapshots: the
// plateau is taken once eviction reaches steady state, and growth is
// measured from there to the final epoch — a flat heap means visiting
// a million distinct keys costs the working set, not the key count.
type ChurnRow struct {
	Keys          int
	Epochs        int
	PacketsTotal  int
	NSPerPkt      float64
	PeakActive    int
	FinalActive   int
	PlateauHeapMB float64
	FinalHeapMB   float64
	HeapGrowthPct float64
}

// churnDstPrefixes is the destination-prefix fan-out of the churn
// keyspace; key index k maps to (src k>>10, dst k&1023).
const churnDstPrefixes = 1024

// ChurnEvictIdleEpochs is the eviction threshold the churn experiment
// runs with: a path idle for one full epoch is evicted at the next
// rotation.
const ChurnEvictIdleEpochs = 1

// churnAddrs maps a global key index to its packet addresses.
func churnAddrs(k int) (src, dst [4]byte) {
	s, d := k/churnDstPrefixes, k%churnDstPrefixes
	return [4]byte{10, byte(s >> 8), byte(s & 255), 1},
		[4]byte{172, byte(16 + d>>8), byte(d & 255), 1}
}

// churnTable builds the prefix table covering totalKeys churn keys.
func churnTable(totalKeys int) *packet.Table {
	srcN := (totalKeys + churnDstPrefixes - 1) / churnDstPrefixes
	dstN := churnDstPrefixes
	if totalKeys < dstN {
		dstN = totalKeys
	}
	var prefixes []packet.Prefix
	for s := 0; s < srcN; s++ {
		prefixes = append(prefixes, packet.MakePrefix(10, byte(s>>8), byte(s&255), 0, 24))
	}
	for d := 0; d < dstN; d++ {
		prefixes = append(prefixes, packet.MakePrefix(172, byte(16+d>>8), byte(d&255), 0, 24))
	}
	return packet.NewTable(prefixes)
}

// Churn runs the key-churn experiment: totalKeys distinct traffic keys
// arrive in epochs disjoint blocks, one block per epoch, each key
// emitting pktsPerKey packets and then never returning. The collector
// runs with idle-path eviction (ChurnEvictIdleEpochs), so its heap
// should plateau at roughly two blocks' working set no matter how many
// total keys the run visits.
func Churn(totalKeys, epochs, pktsPerKey int) (ChurnRow, error) {
	if totalKeys < epochs {
		return ChurnRow{}, fmt.Errorf("experiments: %d churn keys cannot fill %d epochs", totalKeys, epochs)
	}
	if pktsPerKey < 1 {
		return ChurnRow{}, fmt.Errorf("experiments: need at least 1 packet per key")
	}
	table := churnTable(totalKeys)
	cfg := standaloneCollectorConfig(table)
	cfg.EvictIdleEpochs = ChurnEvictIdleEpochs
	col, err := core.NewCollector(cfg)
	if err != nil {
		return ChurnRow{}, err
	}

	blockSize := totalKeys / epochs
	// Reused epoch buffers: the workload must not grow with the key
	// count or it would mask (or fake) collector heap growth.
	pkts := make([]packet.Packet, blockSize*pktsPerKey)
	obs := make([]netsim.Observation, len(pkts))
	var (
		row     ChurnRow
		elapsed time.Duration
		tNS     int64
		plateau float64
	)
	row.Keys, row.Epochs = blockSize*epochs, epochs
	for e := 0; e < epochs; e++ {
		n := 0
		for k := e * blockSize; k < (e+1)*blockSize; k++ {
			src, dst := churnAddrs(k)
			for p := 0; p < pktsPerKey; p++ {
				pkts[n] = packet.Packet{Src: src, Dst: dst, IPID: uint16(n)}
				obs[n] = netsim.Observation{
					Pkt:    &pkts[n],
					Digest: hashing.Mix64(uint64(k)*64 + uint64(p) + 1),
					TimeNS: tNS,
				}
				tNS += 1_000
				n++
			}
		}
		start := time.Now()
		for off := 0; off < n; off += netsim.ReplayBatchSize {
			end := off + netsim.ReplayBatchSize
			if end > n {
				end = n
			}
			col.ObserveBatch(obs[off:end])
		}
		elapsed += time.Since(start)
		samples, aggs := col.Drain()
		col.Recycle(samples, aggs)
		if active := col.Memory().ActivePaths; active > row.PeakActive {
			row.PeakActive = active
		}
		row.PacketsTotal += n

		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heapMB := float64(ms.HeapAlloc) / (1 << 20)
		// Steady state begins once the first eviction pass has run
		// (epoch index 1 drains with block 0 idle).
		if e == 1 || (epochs == 1 && e == 0) {
			plateau = heapMB
		}
		row.FinalHeapMB = heapMB
	}
	row.PlateauHeapMB = plateau
	if plateau > 0 {
		row.HeapGrowthPct = (row.FinalHeapMB - plateau) / plateau * 100
	}
	row.FinalActive = col.Memory().ActivePaths
	row.NSPerPkt = float64(elapsed.Nanoseconds()) / float64(row.PacketsTotal)
	return row, nil
}

// TestChurnFlatHeap is the reduced-scale churn property: visiting
// ~128k distinct keys across 8 epochs with idle eviction keeps the
// live heap flat after the eviction plateau and the monitoring cache
// bounded by the working set, not the key count.
func TestChurnFlatHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement")
	}
	const (
		totalKeys  = 128 * 1024
		epochs     = 8
		pktsPerKey = 2
	)
	row, err := Churn(totalKeys, epochs, pktsPerKey)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", row)
	blockSize := totalKeys / epochs
	if row.PacketsTotal != totalKeys*pktsPerKey {
		t.Errorf("fed %d packets, want %d", row.PacketsTotal, totalKeys*pktsPerKey)
	}
	// The cache never holds more than the current block plus the
	// not-yet-evicted previous one.
	if row.PeakActive > 2*blockSize {
		t.Errorf("peak active paths %d exceed two blocks (%d)", row.PeakActive, 2*blockSize)
	}
	if row.FinalActive > 2*blockSize {
		t.Errorf("final active paths %d exceed two blocks (%d)", row.FinalActive, 2*blockSize)
	}
	// Flat heap: once eviction reaches steady state, the live heap
	// stops tracking the cumulative key count. The tolerance absorbs
	// GC jitter; without eviction the heap roughly doubles per
	// doubling of visited keys (several hundred percent over this
	// run).
	if row.HeapGrowthPct > 15 {
		t.Errorf("live heap grew %.1f%% past the eviction plateau", row.HeapGrowthPct)
	}
}
