package packet

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestPrefixContains(t *testing.T) {
	p := MakePrefix(10, 1, 0, 0, 16)
	cases := []struct {
		addr [4]byte
		want bool
	}{
		{[4]byte{10, 1, 0, 0}, true},
		{[4]byte{10, 1, 255, 255}, true},
		{[4]byte{10, 2, 0, 0}, false},
		{[4]byte{11, 1, 0, 0}, false},
	}
	for _, c := range cases {
		if got := p.Contains(c.addr); got != c.want {
			t.Errorf("%v.Contains(%v) = %v, want %v", p, c.addr, got, c.want)
		}
	}
}

func TestMakePrefixNormalizesHostBits(t *testing.T) {
	p := MakePrefix(10, 1, 2, 3, 16)
	if p.Addr != [4]byte{10, 1, 0, 0} {
		t.Errorf("host bits not cleared: %v", p.Addr)
	}
	if p.String() != "10.1.0.0/16" {
		t.Errorf("String = %q", p.String())
	}
}

func TestPrefixZeroAndFullLength(t *testing.T) {
	def := MakePrefix(0, 0, 0, 0, 0)
	if !def.Contains([4]byte{1, 2, 3, 4}) {
		t.Error("default route should contain everything")
	}
	host := MakePrefix(1, 2, 3, 4, 32)
	if !host.Contains([4]byte{1, 2, 3, 4}) || host.Contains([4]byte{1, 2, 3, 5}) {
		t.Error("/32 containment wrong")
	}
}

func TestTableLongestPrefixMatch(t *testing.T) {
	tbl := NewTable([]Prefix{
		MakePrefix(10, 0, 0, 0, 8),
		MakePrefix(10, 1, 0, 0, 16),
		MakePrefix(10, 1, 2, 0, 24),
		MakePrefix(0, 0, 0, 0, 0),
	})
	cases := []struct {
		addr [4]byte
		want string
	}{
		{[4]byte{10, 1, 2, 3}, "10.1.2.0/24"},
		{[4]byte{10, 1, 9, 9}, "10.1.0.0/16"},
		{[4]byte{10, 200, 1, 1}, "10.0.0.0/8"},
		{[4]byte{8, 8, 8, 8}, "0.0.0.0/0"},
	}
	for _, c := range cases {
		got, ok := tbl.Lookup(c.addr)
		if !ok || got.String() != c.want {
			t.Errorf("Lookup(%v) = %v/%v, want %s", c.addr, got, ok, c.want)
		}
	}
}

func TestTableMiss(t *testing.T) {
	tbl := NewTable([]Prefix{MakePrefix(10, 0, 0, 0, 8)})
	if _, ok := tbl.Lookup([4]byte{11, 0, 0, 1}); ok {
		t.Error("lookup should miss")
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestTableClassify(t *testing.T) {
	tbl := NewTable([]Prefix{
		MakePrefix(10, 1, 0, 0, 16),
		MakePrefix(192, 168, 0, 0, 16),
	})
	p := samplePacket()
	p.Src = [4]byte{10, 1, 5, 5}
	p.Dst = [4]byte{192, 168, 1, 1}
	key, ok := tbl.Classify(&p)
	if !ok {
		t.Fatal("classification failed")
	}
	if key.String() != "10.1.0.0/16->192.168.0.0/16" {
		t.Errorf("key = %v", key)
	}
	p.Dst = [4]byte{172, 16, 0, 1}
	if _, ok := tbl.Classify(&p); ok {
		t.Error("unclassifiable packet should fail")
	}
}

func TestTableLPMAgainstLinearScan(t *testing.T) {
	prefixes := []Prefix{
		MakePrefix(0, 0, 0, 0, 0),
		MakePrefix(10, 0, 0, 0, 8),
		MakePrefix(10, 128, 0, 0, 9),
		MakePrefix(10, 1, 0, 0, 16),
		MakePrefix(10, 1, 128, 0, 17),
		MakePrefix(172, 16, 0, 0, 12),
		MakePrefix(192, 168, 4, 0, 22),
		MakePrefix(192, 168, 4, 4, 30),
	}
	tbl := NewTable(prefixes)
	linear := func(a [4]byte) (Prefix, bool) {
		var best Prefix
		found := false
		for _, p := range prefixes {
			if p.Contains(a) && (!found || p.Bits > best.Bits) {
				best, found = p, true
			}
		}
		return best, found
	}
	f := func(a, b, c, d byte) bool {
		addr := [4]byte{a, b, c, d}
		g1, ok1 := tbl.Lookup(addr)
		g2, ok2 := linear(addr)
		return ok1 == ok2 && (!ok1 || g1 == g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTableInvalidPrefixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid prefix length did not panic")
		}
	}()
	NewTable([]Prefix{{Bits: 40}})
}

// TestPathKeyIsPaddingFree: a Prefix is its four address bytes and a
// one-byte length, and a PathKey two of them with nothing between, so
// the maps keyed by PathKey (the collector's paths, the leaf index, the
// verifier's route plans) hash and compare each key as one 10-byte
// block instead of field by field.
func TestPathKeyIsPaddingFree(t *testing.T) {
	if got := unsafe.Sizeof(Prefix{}); got != 5 {
		t.Errorf("Prefix is %d bytes, want 5", got)
	}
	if got := unsafe.Sizeof(PathKey{}); got != 10 {
		t.Errorf("PathKey is %d bytes, want 10", got)
	}
}

func TestMakePrefixRejectsInvalidLength(t *testing.T) {
	for _, bits := range []int{-1, 33, 256 + 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MakePrefix with length %d did not panic", bits)
				}
			}()
			MakePrefix(10, 0, 0, 0, bits)
		}()
	}
}

func BenchmarkTableLookup(b *testing.B) {
	prefixes := make([]Prefix, 0, 256)
	for i := 0; i < 256; i++ {
		prefixes = append(prefixes, MakePrefix(byte(i), 0, 0, 0, 8))
	}
	tbl := NewTable(prefixes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl.Lookup([4]byte{byte(i), 1, 2, 3})
	}
}
