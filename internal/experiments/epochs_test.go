package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"vpm/internal/core"
	"vpm/internal/receipt"
)

// TestRunContinuous drives the full continuous pipeline — per-epoch
// simulation segments, signed epoch-tagged bundles over the bus, the
// windowed store, rolling verification overlapping ingest, and
// retention-based eviction — at smoke scale, and asserts the
// steady-state properties the design promises.
func TestRunContinuous(t *testing.T) {
	cfg := Config{Seed: 3, RatePPS: 20_000}
	const epochs, retention = 12, 2
	ec := core.EpochConfig{IntervalNS: 25_000_000, Retention: retention}

	var reported []core.EpochID
	res, err := RunContinuousOpts(cfg, ec, epochs, ContinuousOptions{OnEpoch: func(rep core.EpochReport, _ core.WindowStats) {
		reported = append(reported, rep.Epoch)
	}})
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
	ec := core.EpochConfig{IntervalNS: 250_000_000, Retention: 2}
	res, err := RunContinuousOpts(cfg, ec, 180, ContinuousOptions{OnEpoch: func(rep core.EpochReport, _ core.WindowStats) {
		if n := rep.Violations(); n != 0 {
			t.Errorf("honest epoch %d: %d violations", rep.Epoch, n)
		}
	}})
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
	if _, err := RunContinuousOpts(cfg, core.EpochConfig{IntervalNS: 0, Retention: 1}, 2, ContinuousOptions{}); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := RunContinuousOpts(cfg, core.EpochConfig{IntervalNS: 1e7, Retention: 0}, 2, ContinuousOptions{}); err == nil {
		t.Fatal("zero retention accepted")
	}
	if _, err := RunContinuousOpts(cfg, core.EpochConfig{IntervalNS: 1e7, Retention: 1}, 0, ContinuousOptions{}); err == nil {
		t.Fatal("zero epochs accepted")
	}
}

// encodeReports renders every report's canonical bytes.
func encodeReports(t *testing.T, reps []core.EpochReport) [][]byte {
	t.Helper()
	out := make([][]byte, len(reps))
	for i, rep := range reps {
		enc, err := core.EncodeEpochReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = enc
	}
	return out
}

// TestStreamEndIsScheduleIndependent forces the schedule that used to
// change a verdict: the verify step is held (in OnEpoch) until every
// HOP has sealed the terminal epoch, and the last terminal seal then
// stalls (in a WrapSink wrapper) so that verification gets to run
// before the stream is declared over. A verify step in that gap judges
// epoch terminal−1 without the stream-end evidence rule and encodes it
// to different bytes; the engine allows no step there, so both waits
// time out and every report matches the unstalled run's.
func TestStreamEndIsScheduleIndependent(t *testing.T) {
	const epochs, wait = 6, 400 * time.Millisecond
	ec := core.EpochConfig{IntervalNS: 250_000_000, Retention: 2}
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := Config{Seed: seed, RatePPS: 100_000}
			plain, err := RunContinuousOpts(cfg, ec, epochs, ContinuousOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := encodeReports(t, plain.Reports)
			terminal := core.EpochID(plain.EpochsSealed - 1)

			var (
				mu        sync.Mutex
				hops      = map[receipt.HOPID]bool{}
				sealed    = map[receipt.HOPID]bool{}
				allSealed = make(chan struct{})
				sawTail   = make(chan struct{})
				held      bool
			)
			opts := ContinuousOptions{
				OnEpoch: func(rep core.EpochReport, _ core.WindowStats) {
					if rep.Epoch == terminal-1 {
						close(sawTail)
					}
					if !held {
						held = true
						select {
						case <-allSealed:
						case <-time.After(wait):
						}
					}
				},
				WrapSink: func(next core.EpochSink) core.EpochSink {
					return func(hop receipt.HOPID, e core.EpochID, s []receipt.SampleReceipt, a []receipt.AggReceipt) {
						next(hop, e, s, a)
						mu.Lock()
						hops[hop] = true
						if e == terminal {
							sealed[hop] = true
						}
						last := e == terminal && len(sealed) == len(hops)
						mu.Unlock()
						if last {
							close(allSealed)
							select {
							case <-sawTail:
							case <-time.After(wait):
							}
						}
					}
				},
			}
			stalled, err := RunContinuousOpts(cfg, ec, epochs, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := encodeReports(t, stalled.Reports)
			if len(got) != len(want) {
				t.Fatalf("stalled run produced %d reports, unstalled %d", len(got), len(want))
			}
			for e := range got {
				if !bytes.Equal(got[e], want[e]) {
					t.Errorf("epoch %d (terminal %d) verdict depends on the schedule: %d bytes stalled, %d unstalled",
						e, terminal, len(got[e]), len(want[e]))
				}
			}
		})
	}
}

// failingBackend is a RAM-only backend whose PutReport fails for one
// epoch.
type failingBackend struct{ failAt core.EpochID }

var errPutReport = errors.New("report store full")

func (failingBackend) AppendEpochHOP(core.EpochID, receipt.HOPID, []receipt.SampleReceipt, []receipt.AggReceipt) error {
	return nil
}
func (failingBackend) SealEpoch(core.EpochID) error     { return nil }
func (failingBackend) LastSealed() (core.EpochID, bool) { return 0, false }
func (failingBackend) HasReport(core.EpochID) bool      { return false }
func (b failingBackend) PutReport(e core.EpochID, _ []byte) error {
	if e == b.failAt {
		return errPutReport
	}
	return nil
}

// TestVerifyFailureStopsTheRun: a verification error ends the run at
// the next segment boundary instead of after every remaining epoch has
// been simulated.
func TestVerifyFailureStopsTheRun(t *testing.T) {
	cfg := Config{Seed: 3, RatePPS: 20_000}
	ec := core.EpochConfig{IntervalNS: 25_000_000, Retention: 2}
	res, err := RunContinuousOpts(cfg, ec, 200, ContinuousOptions{Backend: failingBackend{failAt: 1}})
	if !errors.Is(err, errPutReport) {
		t.Fatalf("run error = %v, want the backend's PutReport failure", err)
	}
	if res == nil || res.EpochsRun > 4 {
		t.Fatalf("the run kept simulating after verification failed: result %+v", res)
	}
}
