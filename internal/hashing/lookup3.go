// Package hashing implements the "Bob" hash (Bob Jenkins' lookup3),
// which the paper selects for packet digesting because it "has been
// shown to work well with Internet traffic" (Molina et al., ITC 2005,
// paper reference [19]), together with the derived primitives VPM
// needs: 64-bit packet digests, the keyed SampleFcn of Algorithm 1, and
// conversions between sampling rates and hash thresholds.
//
// All HOPs in a deployment must compute identical digests for identical
// packets, so this implementation is a faithful port of the public
// domain lookup3.c (hashlittle2) and is verified against the reference
// test vectors from that file.
package hashing

import "math"

func rot(x uint32, k uint) uint32 { return x<<k | x>>(32-k) }

// Lookup3 is Bob Jenkins' hashlittle2: it hashes data with two 32-bit
// seeds pc and pb and returns two 32-bit results (c, b), of which c is
// the primary hash (identical to hashlittle(data, pc) when pb == 0).
func Lookup3(data []byte, pc, pb uint32) (c, b uint32) {
	length := len(data)
	a := 0xdeadbeef + uint32(length) + pc
	b = a
	c = a + pb

	k := data
	for len(k) > 12 {
		a += uint32(k[0]) | uint32(k[1])<<8 | uint32(k[2])<<16 | uint32(k[3])<<24
		b += uint32(k[4]) | uint32(k[5])<<8 | uint32(k[6])<<16 | uint32(k[7])<<24
		c += uint32(k[8]) | uint32(k[9])<<8 | uint32(k[10])<<16 | uint32(k[11])<<24
		// mix(a,b,c)
		a -= c
		a ^= rot(c, 4)
		c += b
		b -= a
		b ^= rot(a, 6)
		a += c
		c -= b
		c ^= rot(b, 8)
		b += a
		a -= c
		a ^= rot(c, 16)
		c += b
		b -= a
		b ^= rot(a, 19)
		a += c
		c -= b
		c ^= rot(b, 4)
		b += a
		k = k[12:]
	}

	// Tail: the famous fall-through switch from lookup3.c.
	switch len(k) {
	case 12:
		c += uint32(k[11]) << 24
		fallthrough
	case 11:
		c += uint32(k[10]) << 16
		fallthrough
	case 10:
		c += uint32(k[9]) << 8
		fallthrough
	case 9:
		c += uint32(k[8])
		fallthrough
	case 8:
		b += uint32(k[7]) << 24
		fallthrough
	case 7:
		b += uint32(k[6]) << 16
		fallthrough
	case 6:
		b += uint32(k[5]) << 8
		fallthrough
	case 5:
		b += uint32(k[4])
		fallthrough
	case 4:
		a += uint32(k[3]) << 24
		fallthrough
	case 3:
		a += uint32(k[2]) << 16
		fallthrough
	case 2:
		a += uint32(k[1]) << 8
		fallthrough
	case 1:
		a += uint32(k[0])
	case 0:
		// Zero remaining bytes: report and skip the final mix, as in
		// the reference implementation.
		return c, b
	}

	// final(a,b,c)
	c ^= b
	c -= rot(b, 14)
	a ^= c
	a -= rot(c, 11)
	b ^= a
	b -= rot(a, 25)
	c ^= b
	c -= rot(b, 16)
	a ^= c
	a -= rot(c, 4)
	b ^= a
	b -= rot(a, 14)
	c ^= b
	c -= rot(b, 24)
	return c, b
}

// Digest computes the 64-bit packet digest used throughout VPM: the
// two 32-bit lanes of Lookup3 concatenated, seeded by the two halves of
// seed. Different deployments (or epochs) can use different seeds; all
// HOPs on a path must agree on the seed to classify packets
// consistently.
func Digest(data []byte, seed uint64) uint64 {
	c, b := Lookup3(data, uint32(seed), uint32(seed>>32))
	return uint64(c)<<32 | uint64(b)
}

// Mix64 is the SplitMix64 finalizer: a cheap 64-bit bijective mixer
// with full avalanche, used to combine digests.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SampleFcn is the keyed sampling function of Algorithm 1: it combines
// the digest q of an already-observed packet with the digest p of the
// marker packet that arrived later on the same path. Because p is not
// known when q's packet is forwarded, a domain cannot predict whether
// q's packet will be sampled (bias resistance, paper section 5.1).
//
// The combination is a non-commutative 64-bit mix so that neither
// argument alone determines the output. It is SampleStep over
// SampleKey(p): one marker decides a whole buffer of records, so its
// callers mix the marker once and step each record.
func SampleFcn(q, p uint64) uint64 { return SampleStep(q, SampleKey(p)) }

// SampleKey is the half of SampleFcn fixed by the marker digest p.
func SampleKey(p uint64) uint64 { return Mix64(p ^ 0x517cc1b727220a95) }

// SampleStep is the half of SampleFcn that varies with the record
// digest q, under a marker's SampleKey.
func SampleStep(q, key uint64) uint64 { return Mix64(q ^ key) }

// ThresholdForRate returns the threshold sigma such that a uniformly
// distributed 64-bit hash exceeds sigma with probability rate. Rates
// outside (0,1) clamp to "never" (MaxUint64) and "always" (0).
func ThresholdForRate(rate float64) uint64 {
	if rate <= 0 {
		return math.MaxUint64
	}
	if rate >= 1 {
		return 0
	}
	// P(h > sigma) = (MaxUint64 - sigma) / 2^64  =>
	// sigma = (1-rate) * 2^64, computed in float64 with clamping.
	f := (1 - rate) * float64(math.MaxUint64)
	if f >= float64(math.MaxUint64) {
		return math.MaxUint64
	}
	if f <= 0 {
		return 0
	}
	return uint64(f)
}

// Exceeds reports whether hash value h exceeds threshold sigma — the
// single comparison both Algorithm 1 (markers, samples) and Algorithm 2
// (cutting points) are built on. Centralizing it documents the
// convention: strictly greater, matching "Digest(p) > mu" in the paper.
func Exceeds(h, sigma uint64) bool { return h > sigma }
