package experiments

import (
	"testing"

	"vpm/internal/core"
)

// TestRunContinuous drives the full continuous pipeline — per-epoch
// simulation segments, signed epoch-tagged bundles over the bus, the
// windowed store, rolling verification overlapping ingest, and
// retention-based eviction — at smoke scale, and asserts the
// steady-state properties the design promises.
func TestRunContinuous(t *testing.T) {
	cfg := Config{Seed: 3, RatePPS: 20_000}
	const epochs, retention = 12, 2
	ec := core.EpochConfig{IntervalNS: 25_000_000, Retention: retention, Workers: 1, Shards: 1}

	var reported []core.EpochID
	res, err := RunContinuous(cfg, ec, epochs, func(rep core.EpochReport, _ core.WindowStats) {
		reported = append(reported, rep.Epoch)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.EpochsRun != epochs {
		t.Fatalf("ran %d epochs, want %d", res.EpochsRun, epochs)
	}
	if res.EpochsSealed < epochs || len(res.Reports) != res.EpochsSealed {
		t.Fatalf("sealed %d epochs but produced %d reports", res.EpochsSealed, len(res.Reports))
	}
	for i, e := range reported {
		if e != core.EpochID(i) {
			t.Fatalf("reports out of order: %v", reported)
		}
	}
	if res.Violations != 0 {
		t.Fatalf("healthy continuous run produced %d violations", res.Violations)
	}
	if res.MatchedSamples == 0 || res.SampleReceipts == 0 {
		t.Fatalf("no receipts flowed: %+v", res)
	}
	// Bounded steady state: the window never outgrows retention plus
	// the verification/ingest in-flight epochs.
	if bound := retention + 2; res.Window.Segments > bound {
		t.Fatalf("window holds %d segments after shutdown; bound %d", res.Window.Segments, bound)
	}
	if res.Window.Evicted == 0 {
		t.Fatal("a 12-epoch run with retention 2 must have evicted something")
	}
}

// TestRunContinuousHonestMarkerInversion replays the honest Fig1 run
// that used to blame innocent links: at seed 1 and 100 kpps, epoch 172
// holds a 71 ms inter-marker gap (~70 σ-samples in one temporary
// buffer) closed by two markers 45 µs apart that swap order across a
// link, so its two ends key the whole buffer with different markers —
// 282 violations at epoch 172 and 198 at 175 before the link check
// derived the inversion from the receipts.
func TestRunContinuousHonestMarkerInversion(t *testing.T) {
	if testing.Short() {
		t.Skip("180 epochs at 100 kpps (~4 s)")
	}
	cfg := Config{Seed: 1, RatePPS: 100_000, DurationNS: 250_000_000}
	ec := core.EpochConfig{IntervalNS: 250_000_000, Retention: 2, Workers: 1, Shards: 1}
	res, err := RunContinuous(cfg, ec, 180, func(rep core.EpochReport, _ core.WindowStats) {
		if n := rep.Violations(); n != 0 {
			t.Errorf("honest epoch %d: %d violations", rep.Epoch, n)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 || len(res.Unverified) != 0 {
		t.Fatalf("honest run: %d violations, unverified epochs %v", res.Violations, res.Unverified)
	}
}

// TestRunContinuousValidation: the engine rejects broken epoch
// configurations up front.
func TestRunContinuousValidation(t *testing.T) {
	cfg := Config{Seed: 1, RatePPS: 1000}
	if _, err := RunContinuous(cfg, core.EpochConfig{IntervalNS: 0, Retention: 1}, 2, nil, nil); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := RunContinuous(cfg, core.EpochConfig{IntervalNS: 1e7, Retention: 0}, 2, nil, nil); err == nil {
		t.Fatal("zero retention accepted")
	}
	if _, err := RunContinuous(cfg, core.EpochConfig{IntervalNS: 1e7, Retention: 1}, 0, nil, nil); err == nil {
		t.Fatal("zero epochs accepted")
	}
}

// TestEpochsRows: the benchmark emits the batch baseline plus one row
// per retention, with consistent packet accounting across modes.
func TestEpochsRows(t *testing.T) {
	cfg := Config{Seed: 2, RatePPS: 10_000, DurationNS: 25_000_000}
	rows, err := Epochs(cfg, 4, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("expected batch + 1 continuous row, got %d", len(rows))
	}
	if rows[0].Mode != "batch" || rows[1].Mode != "continuous" {
		t.Fatalf("unexpected modes: %q, %q", rows[0].Mode, rows[1].Mode)
	}
	if rows[0].Packets != rows[1].Packets {
		t.Fatalf("modes saw different traffic: %d vs %d packets", rows[0].Packets, rows[1].Packets)
	}
	if rows[1].SegmentsHeld > 2+2 {
		t.Fatalf("continuous row held %d segments", rows[1].SegmentsHeld)
	}
	if rows[1].EpochsPerSec <= 0 || rows[1].HeapMB <= 0 {
		t.Fatalf("missing throughput/heap stats: %+v", rows[1])
	}
	if EpochsRender(rows, false) == "" || EpochsRender(rows, true) == "" {
		t.Fatal("renderers returned nothing")
	}
}
