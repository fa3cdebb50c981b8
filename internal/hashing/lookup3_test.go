package hashing

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

// TestLookup3ReferenceVectors checks the vectors published in the
// self-test driver of the public-domain lookup3.c.
func TestLookup3ReferenceVectors(t *testing.T) {
	cases := []struct {
		key        string
		pc, pb     uint32
		wantC      uint32
		wantB      uint32
		checkBLane bool
	}{
		{"", 0, 0, 0xdeadbeef, 0xdeadbeef, true},
		{"", 0, 0xdeadbeef, 0xbd5b7dde, 0xdeadbeef, true},
		{"", 0xdeadbeef, 0xdeadbeef, 0x9c093ccd, 0xbd5b7dde, true},
		{"Four score and seven years ago", 0, 0, 0x17770551, 0xce7226e6, true},
		{"Four score and seven years ago", 0, 1, 0xe3607cae, 0xbd371de4, true},
		{"Four score and seven years ago", 1, 0, 0xcd628161, 0x6cbea4b3, true},
	}
	for _, c := range cases {
		gc, gb := Lookup3([]byte(c.key), c.pc, c.pb)
		if gc != c.wantC {
			t.Errorf("Lookup3(%q,%#x,%#x) c = %#x, want %#x", c.key, c.pc, c.pb, gc, c.wantC)
		}
		if c.checkBLane && gb != c.wantB {
			t.Errorf("Lookup3(%q,%#x,%#x) b = %#x, want %#x", c.key, c.pc, c.pb, gb, c.wantB)
		}
	}
}

func TestHash32MatchesPrimaryLane(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	for seed := uint32(0); seed < 8; seed++ {
		c, _ := Lookup3(data, seed, 0)
		if got := Hash32(data, seed); got != c {
			t.Fatalf("Hash32 != primary lane for seed %d", seed)
		}
	}
}

func TestLookup3AllLengths(t *testing.T) {
	// Exercise every tail-switch case (lengths 0..13 cover all cases
	// plus one full block) and ensure determinism.
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(i*7 + 3)
	}
	for n := 0; n <= len(buf); n++ {
		a1, b1 := Lookup3(buf[:n], 1, 2)
		a2, b2 := Lookup3(buf[:n], 1, 2)
		if a1 != a2 || b1 != b2 {
			t.Fatalf("non-deterministic at length %d", n)
		}
		if n > 0 {
			// Changing the last byte must change the hash
			// (overwhelmingly likely; deterministic check here).
			mod := make([]byte, n)
			copy(mod, buf[:n])
			mod[n-1] ^= 0xff
			c1, _ := Lookup3(buf[:n], 1, 2)
			c2, _ := Lookup3(mod, 1, 2)
			if c1 == c2 {
				t.Errorf("length %d: last-byte flip did not change hash", n)
			}
		}
	}
}

func TestDigestSeedSensitivity(t *testing.T) {
	data := []byte("packet header bytes")
	d0 := Digest(data, 0)
	d1 := Digest(data, 1)
	d2 := Digest(data, 1<<40)
	if d0 == d1 || d0 == d2 || d1 == d2 {
		t.Error("digests with different seeds should differ")
	}
}

func TestDigestAvalanche(t *testing.T) {
	// Flipping a single input bit should flip close to half of the 64
	// output bits on average.
	data := make([]byte, 20)
	for i := range data {
		data[i] = byte(i)
	}
	base := Digest(data, 42)
	total := 0
	trials := 0
	for bytePos := 0; bytePos < len(data); bytePos++ {
		for bit := 0; bit < 8; bit++ {
			mod := make([]byte, len(data))
			copy(mod, data)
			mod[bytePos] ^= 1 << bit
			total += bits.OnesCount64(base ^ Digest(mod, 42))
			trials++
		}
	}
	avg := float64(total) / float64(trials)
	if avg < 28 || avg > 36 {
		t.Errorf("avalanche average = %.2f bits, want ~32", avg)
	}
}

func TestDigestUniformity(t *testing.T) {
	// Bucket high bits of digests of counter inputs; expect roughly
	// uniform occupancy (chi-squared-ish sanity bound).
	const buckets = 16
	const n = 16384
	counts := make([]int, buckets)
	var data [8]byte
	for i := 0; i < n; i++ {
		data[0], data[1], data[2], data[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		d := Digest(data[:], 7)
		counts[d>>60]++
	}
	want := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("bucket %d occupancy %d deviates from %v", i, c, want)
		}
	}
}

func TestMix64Bijective(t *testing.T) {
	// Spot-check injectivity on a window of inputs and on random pairs.
	seen := make(map[uint64]uint64, 4096)
	for i := uint64(0); i < 4096; i++ {
		v := Mix64(i)
		if prev, dup := seen[v]; dup {
			t.Fatalf("Mix64 collision: %d and %d -> %#x", prev, i, v)
		}
		seen[v] = i
	}
	// 0 is a fixed point of the finalizer (xor-multiply chain); the
	// SampleFcn constant xor keeps that harmless in practice.
	if Mix64(0) != 0 {
		t.Error("Mix64(0) is expected to be the chain's fixed point")
	}
}

func TestSampleFcnNonCommutative(t *testing.T) {
	q, p := uint64(0x1234), uint64(0x9876)
	if SampleFcn(q, p) == SampleFcn(p, q) {
		t.Error("SampleFcn should not be symmetric in its arguments")
	}
}

func TestSampleFcnKeying(t *testing.T) {
	// Changing the marker digest must (with overwhelming probability)
	// change the sample decision value for a fixed packet digest —
	// this is the bias-resistance property's mechanical core.
	f := func(q, p1, p2 uint64) bool {
		if p1 == p2 {
			return true
		}
		return SampleFcn(q, p1) != SampleFcn(q, p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSampleFcnGolden pins SampleFcn to fixed values, computed once
// and written down: every HOP and the verifier must key Algorithm 1
// identically, so a refactor that changes a single output re-keys
// every receipt. The two-step form the collector runs (the marker's
// key mixed once, then one step per record) must give the same values.
func TestSampleFcnGolden(t *testing.T) {
	golden := []struct{ q, p, want uint64 }{
		{0x0000000000000000, 0x0000000000000000, 0x61754e8867711e40},
		{0x0000000000000001, 0x0000000000000000, 0x373da388704a2b8a},
		{0x0000000000000000, 0x0000000000000001, 0xc797831ffb66e1b7},
		{0x0000000000001234, 0x0000000000009876, 0xe47fce8dd69c5472},
		{0xffffffffffffffff, 0xffffffffffffffff, 0x168fabb6c84c93a9},
		{0x517cc1b727220a95, 0x0000000000000000, 0x41070b9b3ee08bda},
		{0x0000000000000000, 0x517cc1b727220a95, 0x0000000000000000}, // Mix64's fixed point
		{0xfeda37ff744d386f, 0x311dbce10ac9b23f, 0xbf468076fa9ae448},
		{0x311dbce10ac9b23f, 0xfeda37ff744d386f, 0xe2143c5dc18c0a02},
		{0x8000000000000000, 0x0000000000000001, 0xd3318b461dae0444},
	}
	for _, g := range golden {
		if got := SampleFcn(g.q, g.p); got != g.want {
			t.Errorf("SampleFcn(%#x, %#x) = %#x, want %#x", g.q, g.p, got, g.want)
		}
		if got := SampleStep(g.q, SampleKey(g.p)); got != g.want {
			t.Errorf("SampleStep(%#x, SampleKey(%#x)) = %#x, want %#x", g.q, g.p, got, g.want)
		}
	}
}

func TestThresholdRateRoundTrip(t *testing.T) {
	for _, rate := range []float64{0.001, 0.01, 0.05, 0.1, 0.5, 0.9, 0.99} {
		sigma := ThresholdForRate(rate)
		back := float64(math.MaxUint64-sigma) / float64(math.MaxUint64)
		if math.Abs(back-rate) > 1e-9 {
			t.Errorf("rate %v -> sigma %#x -> rate %v", rate, sigma, back)
		}
	}
}

func TestThresholdClamping(t *testing.T) {
	if ThresholdForRate(0) != math.MaxUint64 {
		t.Error("rate 0 should never sample")
	}
	if ThresholdForRate(-1) != math.MaxUint64 {
		t.Error("negative rate should never sample")
	}
	if ThresholdForRate(1) != 0 {
		t.Error("rate 1 should always sample")
	}
	if ThresholdForRate(2) != 0 {
		t.Error("rate >1 should always sample")
	}
}

func TestThresholdEmpiricalRate(t *testing.T) {
	// The fraction of uniform hashes exceeding ThresholdForRate(r)
	// should be close to r.
	for _, rate := range []float64{0.01, 0.1, 0.5} {
		sigma := ThresholdForRate(rate)
		const n = 200000
		hits := 0
		var data [8]byte
		for i := 0; i < n; i++ {
			data[0], data[1], data[2] = byte(i), byte(i>>8), byte(i>>16)
			if Exceeds(Digest(data[:], 99), sigma) {
				hits++
			}
		}
		got := float64(hits) / n
		tol := 4 * math.Sqrt(rate*(1-rate)/n)
		if math.Abs(got-rate) > tol+0.001 {
			t.Errorf("empirical rate %v for nominal %v (tol %v)", got, rate, tol)
		}
	}
}

func TestThresholdMonotonicity(t *testing.T) {
	// Lower rate => higher threshold; a hash exceeding the higher
	// threshold also exceeds the lower one (the subset property's
	// arithmetic backbone, paper section 5.2).
	s1 := ThresholdForRate(0.01)
	s2 := ThresholdForRate(0.10)
	if s1 <= s2 {
		t.Fatalf("threshold(0.01)=%#x should exceed threshold(0.10)=%#x", s1, s2)
	}
	f := func(h uint64) bool {
		if Exceeds(h, s1) && !Exceeds(h, s2) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDigest40B(b *testing.B) {
	data := make([]byte, 40)
	b.SetBytes(40)
	for i := 0; i < b.N; i++ {
		Digest(data, 1)
	}
}

func BenchmarkSampleFcn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		SampleFcn(uint64(i), 0xabcdef)
	}
}

// Hash32 is hashlittle: a 32-bit hash of data with a single seed.
func Hash32(data []byte, seed uint32) uint32 {
	c, _ := Lookup3(data, seed, 0)
	return c
}
