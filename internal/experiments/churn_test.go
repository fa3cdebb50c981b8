package experiments

import "testing"

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
