// Package lossmodel implements the packet-loss processes the paper's
// evaluation uses to damage traffic: the two-state Gilbert-Elliott
// model (paper reference [9], Ebert & Willig) and, for comparisons and
// tests, independent Bernoulli loss.
//
// The paper "introduce[s] loss in the chosen packet sequence" by
// discarding a subset of packets chosen with Gilbert-Elliott (§7.2);
// these processes plug into the network simulator's links and domains.
package lossmodel

import (
	"fmt"

	"vpm/internal/stats"
)

// Process decides, statefully, whether each successive packet is
// dropped. Implementations are not safe for concurrent use.
type Process interface {
	// Drop reports whether the next packet is lost.
	Drop() bool
}

// Bernoulli drops each packet independently with probability P.
type Bernoulli struct {
	P   float64
	rng *stats.RNG
}

// NewBernoulli returns an independent-loss process with rate p.
func NewBernoulli(p float64, rng *stats.RNG) *Bernoulli {
	return &Bernoulli{P: p, rng: rng}
}

// Drop implements Process.
func (b *Bernoulli) Drop() bool { return b.rng.Bool(b.P) }

// GilbertElliott is the classic two-state Markov loss model: a Good
// state with loss probability LossGood and a Bad state with loss
// probability LossBad, with per-packet transition probabilities PGB
// (Good->Bad) and PBG (Bad->Good). Loss is bursty: the mean residence
// in the Bad state is 1/PBG packets.
type GilbertElliott struct {
	PGB, PBG           float64
	LossGood, LossBad  float64
	inBad              bool
	rng                *stats.RNG
	drops, transitions int
	total              int
}

// NewGilbertElliott builds the model with explicit parameters.
func NewGilbertElliott(pgb, pbg, lossGood, lossBad float64, rng *stats.RNG) (*GilbertElliott, error) {
	for _, v := range []float64{pgb, pbg, lossGood, lossBad} {
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("lossmodel: parameter %v outside [0,1]", v)
		}
	}
	return &GilbertElliott{PGB: pgb, PBG: pbg, LossGood: lossGood, LossBad: lossBad, rng: rng}, nil
}

// FromTargetLoss builds a Gilbert model (LossGood = 0, LossBad = 1)
// whose stationary loss rate is target and whose mean loss-burst
// length is meanBurst packets. This is the parameterization the
// experiments use: "introduce X% loss".
func FromTargetLoss(target, meanBurst float64, rng *stats.RNG) (*GilbertElliott, error) {
	if target < 0 || target >= 1 {
		return nil, fmt.Errorf("lossmodel: target loss %v outside [0,1)", target)
	}
	if target == 0 {
		return &GilbertElliott{rng: rng}, nil
	}
	if meanBurst < 1 {
		return nil, fmt.Errorf("lossmodel: mean burst %v below 1 packet", meanBurst)
	}
	pbg := 1 / meanBurst
	// Stationary P(bad) = PGB/(PGB+PBG) must equal target.
	pgb := target * pbg / (1 - target)
	if pgb > 1 {
		return nil, fmt.Errorf("lossmodel: target %v with burst %v needs PGB > 1", target, meanBurst)
	}
	return NewGilbertElliott(pgb, pbg, 0, 1, rng)
}

// Drop implements Process: advance the chain one packet and decide.
func (g *GilbertElliott) Drop() bool {
	// Transition first, then emit by current state.
	if g.inBad {
		if g.rng.Bool(g.PBG) {
			g.inBad = false
			g.transitions++
		}
	} else {
		if g.rng.Bool(g.PGB) {
			g.inBad = true
			g.transitions++
		}
	}
	p := g.LossGood
	if g.inBad {
		p = g.LossBad
	}
	g.total++
	if g.rng.Bool(p) {
		g.drops++
		return true
	}
	return false
}
