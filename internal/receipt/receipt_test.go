package receipt

import (
	"encoding/json"
	"testing"
	"testing/quick"
	"unsafe"

	"vpm/internal/packet"
)

func testPath() PathID {
	return PathKeyOf(
		packet.MakePrefix(10, 1, 0, 0, 16),
		packet.MakePrefix(172, 16, 0, 0, 16),
		HOPID(4), HOPID(5), 2_000_000)
}

func TestCombineSamples(t *testing.T) {
	p := testPath()
	r1 := SampleReceipt{Path: p, Samples: []SampleRecord{{1, 10}, {2, 20}}}
	r2 := SampleReceipt{Path: p, Samples: []SampleRecord{{3, 30}}}
	out, err := CombineSamples(r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples) != 3 || out.Samples[2].PktID != 3 {
		t.Fatalf("bad combination: %+v", out)
	}
	if out.Path != p {
		t.Error("path not preserved")
	}
}

func TestCombineSamplesPathMismatch(t *testing.T) {
	p1, p2 := testPath(), testPath()
	p2.NextHOP = 9
	_, err := CombineSamples(SampleReceipt{Path: p1}, SampleReceipt{Path: p2})
	if err == nil {
		t.Fatal("mismatched paths combined")
	}
}

func TestCombineSamplesEmpty(t *testing.T) {
	if _, err := CombineSamples(); err == nil {
		t.Fatal("empty combine accepted")
	}
}

func TestCombineAggregates(t *testing.T) {
	p := testPath()
	rs := []AggReceipt{
		{Path: p, Agg: AggID{First: 0xa, Last: 0xb}, PktCnt: 100},
		{Path: p, Agg: AggID{First: 0xc, Last: 0xd}, PktCnt: 50},
		{Path: p, Agg: AggID{First: 0xe, Last: 0xf}, PktCnt: 25,
			AggTrans: []SampleRecord{{0xf, 99}}},
	}
	out, err := CombineAggregates(rs...)
	if err != nil {
		t.Fatal(err)
	}
	if out.PktCnt != 175 {
		t.Errorf("PktCnt = %d, want 175", out.PktCnt)
	}
	if out.Agg.First != 0xa || out.Agg.Last != 0xf {
		t.Errorf("AggID = %+v", out.Agg)
	}
	if len(out.AggTrans) != 1 || out.AggTrans[0].PktID != 0xf {
		t.Error("combined receipt should carry the last AggTrans")
	}
}

func TestCombineAggregatesPathMismatch(t *testing.T) {
	p1, p2 := testPath(), testPath()
	p2.MaxDiffNS = 1
	_, err := CombineAggregates(AggReceipt{Path: p1}, AggReceipt{Path: p2})
	if err == nil {
		t.Fatal("mismatched paths combined")
	}
	if _, err := CombineAggregates(); err == nil {
		t.Fatal("empty combine accepted")
	}
}

func TestCheckAggPair(t *testing.T) {
	p := testPath()
	a := AggReceipt{Path: p, Agg: AggID{1, 2}, PktCnt: 100}
	b := AggReceipt{Path: p, Agg: AggID{1, 2}, PktCnt: 100}
	if v := CheckAggPair(a, b); len(v) != 0 {
		t.Fatalf("equal counts flagged: %v", v)
	}
	b.PktCnt = 99
	v := CheckAggPair(a, b)
	if len(v) != 1 || v[0].Kind != CountMismatch {
		t.Fatalf("count mismatch missed: %v", v)
	}
}

func TestInconsistencyStrings(t *testing.T) {
	for _, k := range []InconsistencyKind{MaxDiffMismatch, DelayBound, CountMismatch, MissingDownstream, MissingUpstream, InconsistencyKind(99)} {
		if k.String() == "" {
			t.Errorf("empty name for kind %d", int(k))
		}
	}
	v := Inconsistency{Kind: DelayBound, PktID: 5, Detail: "x"}
	if v.String() == "" {
		t.Error("empty violation string")
	}
	v.PktID = 0
	if v.String() == "" {
		t.Error("empty violation string without pkt")
	}
}

func TestSampleReceiptBinaryRoundTrip(t *testing.T) {
	r := SampleReceipt{Path: testPath(), Samples: []SampleRecord{{0xdead, 123}, {0xbeef, -7}}}
	b := r.AppendBinary(nil)
	if n := WireSize([]SampleReceipt{r}, nil); len(b) != n {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(b), n)
	}
	s, a, rest, err := Decode(b)
	if err != nil || a != nil || len(rest) != 0 {
		t.Fatalf("decode: s=%v a=%v rest=%d err=%v", s, a, len(rest), err)
	}
	if s.Path != r.Path || len(s.Samples) != 2 || s.Samples[1] != r.Samples[1] {
		t.Fatalf("round trip mismatch: %+v", s)
	}
}

func TestAggReceiptBinaryRoundTrip(t *testing.T) {
	r := AggReceipt{
		Path:     testPath(),
		Agg:      AggID{First: 0x1111, Last: 0x2222},
		PktCnt:   98765,
		AggTrans: []SampleRecord{{0x33, 1}, {0x44, 2}, {0x55, 3}},
	}
	b := r.AppendBinary(nil)
	if n := WireSize(nil, []AggReceipt{r}); len(b) != n {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(b), n)
	}
	s, a, rest, err := Decode(b)
	if err != nil || s != nil || len(rest) != 0 {
		t.Fatalf("decode: s=%v a=%v err=%v", s, a, err)
	}
	if a.Path != r.Path || a.Agg != r.Agg || a.PktCnt != r.PktCnt || len(a.AggTrans) != 3 {
		t.Fatalf("round trip mismatch: %+v", a)
	}
}

func TestDecodeStream(t *testing.T) {
	r1 := SampleReceipt{Path: testPath(), Samples: []SampleRecord{{1, 2}}}
	r2 := AggReceipt{Path: testPath(), Agg: AggID{3, 4}, PktCnt: 5}
	b := r2.AppendBinary(r1.AppendBinary(nil))
	s, _, rest, err := Decode(b)
	if err != nil || s == nil {
		t.Fatal("first decode failed")
	}
	_, a, rest, err := Decode(rest)
	if err != nil || a == nil || len(rest) != 0 {
		t.Fatal("second decode failed")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	r := SampleReceipt{Path: testPath(), Samples: []SampleRecord{{1, 2}}}
	b := r.AppendBinary(nil)
	for _, n := range []int{0, 1, 10, len(b) - 1} {
		if _, _, _, err := Decode(b[:n]); err == nil {
			t.Errorf("truncation to %d accepted", n)
		}
	}
	bad := append([]byte{}, b...)
	bad[0] = 77
	if _, _, _, err := Decode(bad); err == nil {
		t.Error("unknown kind accepted")
	}
	// Corrupt prefix bits.
	bad2 := append([]byte{}, b...)
	bad2[5] = 99
	if _, _, _, err := Decode(bad2); err == nil {
		t.Error("invalid prefix bits accepted")
	}
}

func TestDecodeFuzz(t *testing.T) {
	f := func(data []byte) bool {
		// Must never panic; errors are fine.
		Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := AggReceipt{Path: testPath(), Agg: AggID{1, 2}, PktCnt: 3,
		AggTrans: []SampleRecord{{9, 8}}}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back AggReceipt
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.PktCnt != 3 || back.Agg != r.Agg || len(back.AggTrans) != 1 {
		t.Fatalf("json round trip: %+v", back)
	}
}

func TestSameTraffic(t *testing.T) {
	p, q := testPath(), testPath()
	q.PrevHOP, q.NextHOP, q.MaxDiffNS = 1, 2, 3
	if !p.SameTraffic(q) {
		t.Error("same prefixes should be same traffic")
	}
	q.Key.Dst = packet.MakePrefix(9, 9, 0, 0, 16)
	if p.SameTraffic(q) {
		t.Error("different prefixes should differ")
	}
}

// TestPathIDSize: a PathID is its 10-byte padding-free key, two HOP
// IDs and MaxDiff — 32 bytes, half a cache line, in every receipt held
// in the verification window.
func TestPathIDSize(t *testing.T) {
	if got := unsafe.Sizeof(PathID{}); got != 32 {
		t.Errorf("PathID is %d bytes, want 32", got)
	}
}

func TestStringers(t *testing.T) {
	if testPath().String() == "" || HOPID(3).String() != "HOP3" {
		t.Error("stringers broken")
	}
}

func BenchmarkSampleReceiptEncode(b *testing.B) {
	r := SampleReceipt{Path: testPath(), Samples: make([]SampleRecord, 100)}
	buf := make([]byte, 0, WireSize([]SampleReceipt{r}, nil))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = r.AppendBinary(buf[:0])
	}
}

func BenchmarkReceiptEncodingJSONVsBinary(b *testing.B) {
	r := AggReceipt{Path: testPath(), Agg: AggID{1, 2}, PktCnt: 100000,
		AggTrans: make([]SampleRecord, 16)}
	b.Run("binary", func(b *testing.B) {
		buf := make([]byte, 0, WireSize(nil, []AggReceipt{r}))
		for i := 0; i < b.N; i++ {
			buf = r.AppendBinary(buf[:0])
		}
	})
	b.Run("json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// SameTraffic reports whether two PathIDs refer to the same traffic
// (same origin-prefix pair), regardless of the reporting HOP's
// position or link configuration.
func (p PathID) SameTraffic(q PathID) bool { return p.Key == q.Key }
