package trace

import (
	"math"
	"testing"

	"vpm/internal/packet"
)

func testConfig(rate float64, durNS int64) Config {
	return Config{
		Seed:       1,
		DurationNS: durNS,
		Paths:      []PathSpec{DefaultPath(rate)},
	}
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := testConfig(10000, int64(200e6))
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d differs", i)
		}
	}
}

func TestGenerateRate(t *testing.T) {
	const rate = 50000.0
	const dur = int64(1e9)
	pkts, err := Generate(testConfig(rate, dur))
	if err != nil {
		t.Fatal(err)
	}
	got := float64(len(pkts))
	if math.Abs(got-rate)/rate > 0.05 {
		t.Errorf("generated %v packets for rate %v over 1s", got, rate)
	}
}

func TestGenerateTimeOrdered(t *testing.T) {
	cfg := Config{
		Seed:       2,
		DurationNS: int64(100e6),
		Paths: []PathSpec{
			DefaultPath(20000),
			{
				SrcPrefix: packet.MakePrefix(10, 2, 0, 0, 16),
				DstPrefix: packet.MakePrefix(172, 17, 0, 0, 16),
				RatePPS:   30000,
			},
		},
	}
	pkts, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pkts); i++ {
		if pkts[i].SentAt < pkts[i-1].SentAt {
			t.Fatalf("out of order at %d: %d < %d", i, pkts[i].SentAt, pkts[i-1].SentAt)
		}
	}
}

func TestGenerateAddressesInPrefixes(t *testing.T) {
	cfg := testConfig(20000, int64(100e6))
	spec := cfg.Paths[0]
	pkts, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) == 0 {
		t.Fatal("empty trace")
	}
	for i := range pkts {
		if !spec.SrcPrefix.Contains(pkts[i].Src) {
			t.Fatalf("packet %d src %v outside %v", i, pkts[i].Src, spec.SrcPrefix)
		}
		if !spec.DstPrefix.Contains(pkts[i].Dst) {
			t.Fatalf("packet %d dst %v outside %v", i, pkts[i].Dst, spec.DstPrefix)
		}
	}
}

func TestGenerateMeanPacketSize(t *testing.T) {
	pkts, err := Generate(testConfig(50000, int64(1e9)))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := range pkts {
		sum += float64(pkts[i].TotalLen)
	}
	mean := sum / float64(len(pkts))
	// The paper's back-of-envelope assumes ~400 B average.
	if mean < 330 || mean > 480 {
		t.Errorf("mean packet size %v, want ~400", mean)
	}
}

func TestGenerateProtocolMix(t *testing.T) {
	pkts, err := Generate(testConfig(50000, int64(500e6)))
	if err != nil {
		t.Fatal(err)
	}
	udp := 0
	for i := range pkts {
		switch pkts[i].Proto {
		case packet.ProtoUDP:
			udp++
		case packet.ProtoTCP:
		default:
			t.Fatalf("unexpected proto %v", pkts[i].Proto)
		}
	}
	frac := float64(udp) / float64(len(pkts))
	if frac < 0.05 || frac > 0.5 {
		t.Errorf("UDP fraction %v, want near 0.2", frac)
	}
}

func TestGenerateDigestUniqueness(t *testing.T) {
	// Receipt matching relies on mostly-unique digests within a path.
	pkts, err := Generate(testConfig(100000, int64(1e9)))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]struct{}, len(pkts))
	dups := 0
	for i := range pkts {
		d := pkts[i].Digest(42)
		if _, dup := seen[d]; dup {
			dups++
		}
		seen[d] = struct{}{}
	}
	if frac := float64(dups) / float64(len(pkts)); frac > 0.001 {
		t.Errorf("duplicate digest fraction %v too high", frac)
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(Config{DurationNS: 0, Paths: []PathSpec{DefaultPath(1)}}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := NewGenerator(Config{DurationNS: 1e9}); err == nil {
		t.Error("no paths accepted")
	}
	cfg := testConfig(0, 1e9)
	if _, err := NewGenerator(cfg); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestConfigTable(t *testing.T) {
	cfg := testConfig(1000, int64(1e6))
	tbl := cfg.Table()
	if tbl.Len() != 2 {
		t.Fatalf("table has %d prefixes", tbl.Len())
	}
	pkts, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pkts {
		if _, ok := tbl.Classify(&pkts[i]); !ok {
			t.Fatalf("packet %d unclassifiable", i)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	cfg := testConfig(100000, int64(100e6))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
