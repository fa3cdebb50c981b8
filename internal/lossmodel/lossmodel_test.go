package lossmodel

import (
	"math"
	"testing"

	"vpm/internal/stats"
)

func TestBernoulliRate(t *testing.T) {
	for _, p := range []float64{0, 0.1, 0.25, 0.5} {
		b := NewBernoulli(p, stats.NewRNG(1))
		const n = 100000
		drops := 0
		for i := 0; i < n; i++ {
			if b.Drop() {
				drops++
			}
		}
		got := float64(drops) / n
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bernoulli(%v) empirical rate %v", p, got)
		}
	}
}

func TestGilbertElliottValidation(t *testing.T) {
	r := stats.NewRNG(1)
	if _, err := NewGilbertElliott(-0.1, 0.5, 0, 1, r); err == nil {
		t.Error("negative PGB accepted")
	}
	if _, err := NewGilbertElliott(0.1, 1.5, 0, 1, r); err == nil {
		t.Error("PBG > 1 accepted")
	}
}

func TestFromTargetLossValidation(t *testing.T) {
	r := stats.NewRNG(1)
	if _, err := FromTargetLoss(1.0, 5, r); err == nil {
		t.Error("target 1.0 accepted")
	}
	if _, err := FromTargetLoss(-0.1, 5, r); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := FromTargetLoss(0.5, 0.5, r); err == nil {
		t.Error("sub-packet burst accepted")
	}
	if _, err := FromTargetLoss(0.9, 1, r); err == nil {
		t.Error("infeasible PGB accepted")
	}
}

func TestFromTargetLossZero(t *testing.T) {
	g, err := FromTargetLoss(0, 10, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if g.Drop() {
			t.Fatal("zero-loss model dropped")
		}
	}
}

func TestGilbertElliottStationaryLoss(t *testing.T) {
	r := stats.NewRNG(1)
	for _, target := range []float64{0.05, 0.10, 0.25, 0.50} {
		g, err := FromTargetLoss(target, 8, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		if s := g.StationaryLoss(); math.Abs(s-target) > 1e-9 {
			t.Errorf("StationaryLoss = %v, want %v", s, target)
		}
		const n = 400000
		drops := 0
		for i := 0; i < n; i++ {
			if g.Drop() {
				drops++
			}
		}
		got := float64(drops) / n
		// Bursty processes mix slowly; allow a generous band.
		if math.Abs(got-target) > 0.02 {
			t.Errorf("target %v: empirical %v", target, got)
		}
		if o := g.ObservedLoss(); math.Abs(o-got) > 1e-9 {
			t.Errorf("ObservedLoss %v != empirical %v", o, got)
		}
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	// Mean loss-burst length should be near the configured mean
	// (bursts are consecutive drops while in the Bad state with
	// LossBad = 1).
	const meanBurst = 10.0
	g, err := FromTargetLoss(0.2, meanBurst, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	const n = 500000
	bursts, inBurst, lenSum, cur := 0, false, 0, 0
	for i := 0; i < n; i++ {
		if g.Drop() {
			if !inBurst {
				bursts++
				inBurst = true
				cur = 0
			}
			cur++
		} else if inBurst {
			lenSum += cur
			inBurst = false
		}
	}
	if bursts < 100 {
		t.Fatalf("too few bursts (%d) to judge", bursts)
	}
	mean := float64(lenSum) / float64(bursts)
	if mean < meanBurst*0.7 || mean > meanBurst*1.3 {
		t.Errorf("mean burst length %v, want ~%v", mean, meanBurst)
	}
}

func TestGilbertElliottBurstierThanBernoulli(t *testing.T) {
	// At the same loss rate, GE with long bursts must produce fewer,
	// longer loss runs than Bernoulli.
	countBursts := func(p Process, n int) int {
		bursts, inBurst := 0, false
		for i := 0; i < n; i++ {
			if p.Drop() {
				if !inBurst {
					bursts++
					inBurst = true
				}
			} else {
				inBurst = false
			}
		}
		return bursts
	}
	const n = 200000
	g, _ := FromTargetLoss(0.2, 10, stats.NewRNG(3))
	b := NewBernoulli(0.2, stats.NewRNG(4))
	gb, bb := countBursts(g, n), countBursts(b, n)
	if gb >= bb {
		t.Errorf("GE bursts (%d) should be fewer than Bernoulli bursts (%d)", gb, bb)
	}
}

func TestStationaryLossDegenerate(t *testing.T) {
	g, err := NewGilbertElliott(0, 0, 0.3, 1, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if s := g.StationaryLoss(); s != 0.3 {
		t.Errorf("frozen chain stationary loss = %v, want 0.3 (good state)", s)
	}
}

func TestObservedLossEmpty(t *testing.T) {
	g, _ := FromTargetLoss(0.1, 5, stats.NewRNG(1))
	if g.ObservedLoss() != 0 {
		t.Error("ObservedLoss before any packet should be 0")
	}
}

func BenchmarkGilbertElliott(b *testing.B) {
	g, _ := FromTargetLoss(0.25, 8, stats.NewRNG(1))
	for i := 0; i < b.N; i++ {
		g.Drop()
	}
}

// StationaryLoss returns the model's long-run loss rate.
func (g *GilbertElliott) StationaryLoss() float64 {
	denom := g.PGB + g.PBG
	if denom == 0 {
		// Chain never transitions; loss rate is that of the initial
		// (Good) state.
		return g.LossGood
	}
	pBad := g.PGB / denom
	return (1-pBad)*g.LossGood + pBad*g.LossBad
}

// ObservedLoss returns the empirical loss rate so far (0 if no packets
// have been offered yet).
func (g *GilbertElliott) ObservedLoss() float64 {
	if g.total == 0 {
		return 0
	}
	return float64(g.drops) / float64(g.total)
}
