package netsim_test

import (
	"testing"

	"vpm/internal/adversary"
	"vpm/internal/netsim"
)

// adaptiveBatch builds a deterministic batch spanning spanNS of stream
// time.
func adaptiveBatch(n int, spanNS int64) []netsim.Observation {
	pkts := make([]netsim.Observation, n)
	step := spanNS / int64(n)
	for i := range pkts {
		pkts[i] = netsim.Observation{
			Digest: uint64(i)*0x9e3779b97f4a7c15 + 1,
			TimeNS: int64(i) * step,
		}
	}
	return pkts
}

func TestAdaptiveShaverDecaysTowardFloor(t *testing.T) {
	a := &adversary.AdaptiveShaver{
		InitialShaveNS: 1_000_000,
		FloorNS:        100_000,
		HalfLifeNS:     10_000_000,
	}
	if got := a.ShaveAt(0); got != 1_000_000 {
		t.Fatalf("opening shave %d, want the initial magnitude", got)
	}
	if got := a.ShaveAt(10_000_000); got < 540_000 || got > 560_000 {
		t.Fatalf("shave after one half-life %d, want ~550000 (floor + half the excess)", got)
	}
	// Ten half-lives: the excess is gone to within a part per thousand.
	if got := a.ShaveAt(100_000_000); got < 100_000 || got > 101_000 {
		t.Fatalf("asymptotic shave %d, want ~floor %d", got, a.FloorNS)
	}
	// The schedule is anchored at the first query, not at time zero.
	b := &adversary.AdaptiveShaver{InitialShaveNS: 1_000_000, HalfLifeNS: 10_000_000}
	if got := b.ShaveAt(500_000_000); got != 1_000_000 {
		t.Fatalf("late-starting stream opens at %d, want full magnitude", got)
	}
}

func TestAdaptiveShaverDutyCycle(t *testing.T) {
	a := &adversary.AdaptiveShaver{
		InitialShaveNS: 400_000,
		PeriodNS:       1_000_000,
		Duty:           0.5,
	}
	if got := a.ShaveAt(100_000); got != 400_000 {
		t.Fatalf("on-phase shave %d, want full magnitude", got)
	}
	if got := a.ShaveAt(700_000); got != 0 {
		t.Fatalf("off-phase shave %d, want 0", got)
	}
	if got := a.ShaveAt(1_200_000); got != 400_000 {
		t.Fatalf("second period on-phase shave %d, want full magnitude", got)
	}

	// A batch crossing an on→off edge must come out time-ordered even
	// though the edge un-shaves later observations.
	fresh := &adversary.AdaptiveShaver{InitialShaveNS: 400_000, PeriodNS: 1_000_000, Duty: 0.5}
	out := fresh.TamperBatch(1, adaptiveBatch(64, 2_000_000))
	for i := 1; i < len(out); i++ {
		if out[i].TimeNS < out[i-1].TimeNS {
			t.Fatalf("tampered batch unordered at %d: %d after %d", i, out[i].TimeNS, out[i-1].TimeNS)
		}
	}
}

func TestAdaptiveSuppressorDecaysTowardFloor(t *testing.T) {
	a := &adversary.AdaptiveSuppressor{
		InitialFraction: 0.5,
		FloorFraction:   0.05,
		HalfLifeNS:      1_000_000,
		Seed:            7,
	}
	if got := a.FractionAt(0); got != 0.5 {
		t.Fatalf("opening fraction %v, want 0.5", got)
	}
	if got := a.FractionAt(1_000_000); got < 0.27 || got > 0.28 {
		t.Fatalf("fraction after one half-life %v, want 0.275", got)
	}
	if got := a.FractionAt(50_000_000); got < 0.05 || got > 0.051 {
		t.Fatalf("asymptotic fraction %v, want ~0.05", got)
	}

	// Early stream drops at roughly the initial rate, late stream at
	// roughly the floor.
	early := a.TamperBatch(1, adaptiveBatch(2000, 10_000)) // ~t=0: negligible decay
	if kept := float64(len(early)) / 2000; kept < 0.45 || kept > 0.55 {
		t.Fatalf("early keep rate %.3f, want ~0.50", kept)
	}
	late := adaptiveBatch(2000, 10_000)
	for i := range late {
		late[i].TimeNS += 100_000_000
	}
	lateOut := a.TamperBatch(1, late)
	if kept := float64(len(lateOut)) / 2000; kept < 0.92 || kept > 0.98 {
		t.Fatalf("late keep rate %.3f, want ~0.95", kept)
	}
}

// TestAdaptiveSuppressorChunkingInvariant: drop decisions are keyed on
// the packet digest and its own timestamp, so feeding the stream in
// any batch chunking keeps exactly the same packets.
func TestAdaptiveSuppressorChunkingInvariant(t *testing.T) {
	mk := func() *adversary.AdaptiveSuppressor {
		return &adversary.AdaptiveSuppressor{
			InitialFraction: 0.4,
			FloorFraction:   0.1,
			HalfLifeNS:      5_000_000,
			PeriodNS:        3_000_000,
			Duty:            0.7,
			Seed:            42,
		}
	}
	whole := mk().TamperBatch(1, adaptiveBatch(4096, 20_000_000))
	var pieces []netsim.Observation
	chunked := mk()
	src := adaptiveBatch(4096, 20_000_000)
	for lo := 0; lo < len(src); lo += 97 {
		hi := lo + 97
		if hi > len(src) {
			hi = len(src)
		}
		pieces = append(pieces, chunked.TamperBatch(1, src[lo:hi])...)
	}
	if len(whole) != len(pieces) {
		t.Fatalf("chunking changed the kept count: %d vs %d", len(whole), len(pieces))
	}
	for i := range whole {
		if whole[i].Digest != pieces[i].Digest {
			t.Fatalf("chunking changed the kept set at %d", i)
		}
	}
}

func TestAdaptiveSuppressorDutyCycleOff(t *testing.T) {
	a := &adversary.AdaptiveSuppressor{InitialFraction: 1, PeriodNS: 1_000_000, Duty: 0.25, Seed: 3}
	batch := adaptiveBatch(1000, 1_000_000)
	out := a.TamperBatch(1, batch)
	if len(out) == 0 {
		t.Fatal("duty-cycled suppressor dropped everything")
	}
	// Everything in the on-phase is gone (fraction 1), everything in
	// the off-phase survives.
	for _, o := range out {
		if o.TimeNS < 250_000 {
			t.Fatalf("on-phase packet at %dns survived a fraction-1 suppressor", o.TimeNS)
		}
	}
	if want := 750; len(out) != want {
		t.Fatalf("off-phase survivors %d, want %d", len(out), want)
	}
}
