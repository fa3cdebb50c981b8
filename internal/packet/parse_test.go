package packet

import (
	"errors"
	"testing"

	"vpm/internal/stats"
)

// TestPathKeyRoundTripProperty: random path keys print and re-parse to
// themselves — the strict parser accepts exactly the canonical
// spelling String emits.
func TestPathKeyRoundTripProperty(t *testing.T) {
	rng := stats.NewRNG(0xcafe)
	for i := 0; i < 2000; i++ {
		k := PathKey{
			Src: MakePrefix(byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), rng.Intn(33)),
			Dst: MakePrefix(byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), rng.Intn(33)),
		}
		got, err := ParsePathKey(k.String())
		if err != nil {
			t.Fatalf("iteration %d: %q did not parse: %v", i, k.String(), err)
		}
		if got != k {
			t.Fatalf("iteration %d: %q parsed to %v, want %v", i, k.String(), got, k)
		}
	}
}

// FuzzParsePathKey: ParsePathKey must be total and strict — any string
// either round-trips exactly (one accepted spelling per key) or returns
// an error wrapping ErrBadPrefix; never a panic.
func FuzzParsePathKey(f *testing.F) {
	f.Add("10.1.0.0/16->172.16.0.0/16")
	f.Add("0.0.0.0/0->255.255.255.255/32")
	f.Add("10.0.0.0/8->192.168.0.0/24")
	f.Add("10.1.0.0/16")
	f.Add("10.1.0.0/016->172.16.0.0/16")
	f.Add("10.1.2.3/16->172.16.0.0/16") // host bits set
	f.Add("x.2.3.4/32->4.3.2.1/32")
	f.Add("")
	f.Add("1.2.3.4/33->1.2.3.0/24")
	f.Add("01.2.3.4/32->1.2.3.4/32")

	f.Fuzz(func(t *testing.T, s string) {
		k, err := ParsePathKey(s)
		if err != nil {
			if !errors.Is(err, ErrBadPrefix) {
				t.Fatalf("untyped parse error %v (%T)", err, err)
			}
			return
		}
		if got := k.String(); got != s {
			t.Fatalf("accepted non-canonical spelling %q of %q", s, got)
		}
	})
}
