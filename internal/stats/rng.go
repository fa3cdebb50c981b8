// Package stats provides deterministic random number generation and the
// small statistical toolkit (quantiles, summaries, binomial confidence
// bounds) shared by the VPM simulator, the workload generators and the
// experiment harnesses.
//
// Everything in this package is deterministic given a seed: experiments
// and tests never depend on wall-clock entropy, so every table and
// figure in EXPERIMENTS.md is exactly reproducible.
package stats

import "math"

// RNG is a small, fast, seedable pseudo-random generator based on the
// SplitMix64 stream (Steele et al.), sufficient for workload generation
// and loss/delay processes. It is NOT cryptographically secure and is
// not safe for concurrent use; give each goroutine its own RNG.
//
// The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64
	// spare holds a cached second normal variate from Box-Muller.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split returns a new RNG whose stream is independent of (but
// deterministically derived from) the receiver's current state. Use it
// to hand child components their own generators without correlating
// their streams.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, debiased.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1)
// using the Box-Muller transform with caching of the paired variate.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return u * f
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
// Scale by 1/lambda for rate lambda.
func (r *RNG) ExpFloat64() float64 {
	// Inverse transform; guard against log(0).
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Pareto returns a Pareto(alpha, xm) variate: heavy-tailed with shape
// alpha and minimum xm. Used for flow-size generation (heavy-tailed
// Internet flow sizes).
func (r *RNG) Pareto(alpha, xm float64) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return xm / math.Pow(u, 1/alpha)
		}
	}
}
