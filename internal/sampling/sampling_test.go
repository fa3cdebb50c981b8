package sampling

import (
	"math"
	"reflect"
	"testing"

	"vpm/internal/receipt"
	"vpm/internal/stats"
)

// stream generates n pseudo-random packet digests.
func stream(seed uint64, n int) []uint64 {
	r := stats.NewRNG(seed)
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = r.Uint64()
	}
	return ids
}

// run feeds ids (1ns apart) to a fresh sampler and returns the sampled
// IDs as a set.
func run(cfg Config, ids []uint64) map[uint64]bool {
	s := New(cfg)
	for i, id := range ids {
		s.Observe(id, int64(i))
	}
	out := make(map[uint64]bool)
	for _, rec := range s.Take() {
		out[rec.PktID] = true
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{MarkerRate: 0, SampleRate: 0.1},
		{MarkerRate: -0.1, SampleRate: 0.1},
		{MarkerRate: 1.5, SampleRate: 0.1},
		{MarkerRate: 0.01, SampleRate: -0.1},
		{MarkerRate: 0.01, SampleRate: 1.1},
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	if (Config{MarkerRate: 0.01, SampleRate: 0.01}).Validate() != nil {
		t.Error("valid config rejected")
	}
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config did not panic")
		}
	}()
	New(Config{})
}

func TestDeterminismAndAgreement(t *testing.T) {
	// Two HOPs with identical thresholds observing the same stream
	// sample exactly the same packets (§4 "same sampling algorithm").
	ids := stream(1, 100000)
	cfg := Config{MarkerRate: 0.001, SampleRate: 0.01}
	a, b := run(cfg, ids), run(cfg, ids)
	if len(a) == 0 {
		t.Fatal("no samples")
	}
	if len(a) != len(b) {
		t.Fatalf("sample counts differ: %d vs %d", len(a), len(b))
	}
	for id := range a {
		if !b[id] {
			t.Fatal("sample sets differ")
		}
	}
}

func TestSubsetProperty(t *testing.T) {
	// §5.2: a HOP with a higher sampling rate (lower σ) samples a
	// superset of a HOP with a lower rate; sets are never partially
	// overlapping.
	ids := stream(2, 200000)
	low := run(Config{MarkerRate: 0.001, SampleRate: 0.002}, ids)
	high := run(Config{MarkerRate: 0.001, SampleRate: 0.05}, ids)
	if len(low) >= len(high) {
		t.Fatalf("low-rate set (%d) not smaller than high-rate set (%d)", len(low), len(high))
	}
	for id := range low {
		if !high[id] {
			t.Fatalf("packet %#x sampled at low rate but not at high rate", id)
		}
	}
}

func TestMarkersAlwaysSampled(t *testing.T) {
	ids := stream(3, 50000)
	cfg := Config{MarkerRate: 0.001, SampleRate: 0} // sample nothing but markers
	got := run(cfg, ids)
	s := New(cfg)
	for i, id := range ids {
		s.Observe(id, int64(i))
	}
	_, markers, _ := s.Stats()
	if uint64(len(got)) != markers {
		t.Fatalf("sampled %d, markers %d — markers must be exactly the sampled set at σ-rate 0", len(got), markers)
	}
	if markers == 0 {
		t.Fatal("no markers in 50k packets at rate 0.001")
	}
}

func TestEffectiveRate(t *testing.T) {
	// Effective sampling rate ≈ SampleRate + MarkerRate.
	ids := stream(4, 400000)
	for _, cfg := range []Config{
		{MarkerRate: 0.001, SampleRate: 0.01},
		{MarkerRate: 0.001, SampleRate: 0.05},
		{MarkerRate: 0.0005, SampleRate: 0.001},
	} {
		s := New(cfg)
		for i, id := range ids {
			s.Observe(id, int64(i))
		}
		want := cfg.SampleRate + cfg.MarkerRate*(1-cfg.SampleRate)
		got := s.EffectiveRate()
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("cfg %+v: effective rate %v, want ~%v", cfg, got, want)
		}
	}
}

func TestSamplesCarryObservationTime(t *testing.T) {
	cfg := Config{MarkerRate: 0.01, SampleRate: 0.5}
	s := New(cfg)
	ids := stream(5, 10000)
	for i, id := range ids {
		s.Observe(id, int64(i)*100)
	}
	byID := make(map[uint64]int64, len(ids))
	for i, id := range ids {
		byID[id] = int64(i) * 100
	}
	for _, rec := range s.Take() {
		if want, ok := byID[rec.PktID]; !ok || rec.TimeNS != want {
			t.Fatalf("sample %#x has time %d, want %d", rec.PktID, rec.TimeNS, want)
		}
	}
}

func TestDelayedDecision(t *testing.T) {
	// The bias-resistance core: a packet's sampling fate is unknown
	// until a marker arrives. Before any marker, everything is
	// pending and nothing is sampled.
	cfg := Config{MarkerRate: 0.5, SampleRate: 0.5}
	s := New(cfg)
	mu := s.mu
	// Feed 100 non-marker packets (digests <= µ).
	r := stats.NewRNG(6)
	fed := 0
	for fed < 100 {
		id := r.Uint64()
		if id > mu {
			continue
		}
		s.Observe(id, int64(fed))
		fed++
	}
	if s.Pending() != 100 {
		t.Fatalf("pending = %d, want 100", s.Pending())
	}
	if got := len(s.Take()); got != 0 {
		t.Fatalf("sampled %d before any marker", got)
	}
	// Now a marker: buffer must clear.
	for {
		id := r.Uint64()
		if id > mu {
			s.Observe(id, 1000)
			break
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after marker, want 0", s.Pending())
	}
	if got := len(s.Take()); got == 0 {
		t.Fatal("marker itself was not sampled")
	}
}

func TestMarkerLossDesynchronizesUntilNextMarker(t *testing.T) {
	// §5.3: if a marker is lost between two HOPs, they sample
	// different sets only until the next marker.
	ids := stream(7, 200000)
	cfg := Config{MarkerRate: 0.001, SampleRate: 0.01}
	up := New(cfg)
	down := New(cfg)
	mu := up.mu
	// Drop exactly the first marker from the downstream stream.
	droppedOne := false
	for i, id := range ids {
		up.Observe(id, int64(i))
		if !droppedOne && id > mu {
			droppedOne = true
			continue
		}
		down.Observe(id, int64(i))
	}
	upSet := map[uint64]bool{}
	for _, r := range up.Take() {
		upSet[r.PktID] = true
	}
	common, downOnly := 0, 0
	for _, r := range down.Take() {
		if upSet[r.PktID] {
			common++
		} else {
			downOnly++
		}
	}
	if common == 0 {
		t.Fatal("no common samples at all after one marker loss")
	}
	// The damage should be bounded: divergence is confined to the
	// packets between the lost marker and the next one (~1/markerRate
	// packets of ~200k).
	if frac := float64(downOnly) / float64(common+downOnly); frac > 0.05 {
		t.Errorf("divergent sample fraction %v too high for a single lost marker", frac)
	}
}

func TestTempHighWaterTracksBufferDepth(t *testing.T) {
	cfg := Config{MarkerRate: 0.001, SampleRate: 0.01}
	s := New(cfg)
	for i, id := range stream(8, 100000) {
		s.Observe(id, int64(i))
	}
	hw := s.TempHighWater()
	if hw <= 0 {
		t.Fatal("zero high-water mark")
	}
	// Expected max gap between markers at rate 0.001 over 100k
	// packets is on the order of several thousand; sanity bounds.
	if hw < 500 || hw > 60000 {
		t.Errorf("high-water mark %d implausible for marker rate 0.001", hw)
	}
}

func TestTakeResets(t *testing.T) {
	cfg := Config{MarkerRate: 0.1, SampleRate: 0.5}
	s := New(cfg)
	for i, id := range stream(9, 1000) {
		s.Observe(id, int64(i))
	}
	first := s.Take()
	if len(first) == 0 {
		t.Fatal("no samples taken")
	}
	if len(s.Take()) != 0 {
		t.Fatal("second Take should be empty")
	}
}

func BenchmarkObserve(b *testing.B) {
	s := New(Config{MarkerRate: 0.001, SampleRate: 0.01})
	r := stats.NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(r.Uint64(), int64(i))
		if i%100000 == 0 {
			s.Take()
		}
	}
}

// TestTakeTransfersOwnership proves Take transfers ownership: records
// returned by one Take are never clobbered by later observation, and a
// later Take never hands the same buffer out again.
func TestTakeTransfersOwnership(t *testing.T) {
	cfg := Config{MarkerRate: 0.05, SampleRate: 0.5}
	s := New(cfg)
	ids := stream(11, 4000)
	for i, id := range ids[:2000] {
		s.Observe(id, int64(i))
	}
	first := s.Take()
	snapshot := append([]receipt.SampleRecord(nil), first...)
	for i, id := range ids[2000:] {
		s.Observe(id, int64(2000+i))
	}
	if !reflect.DeepEqual(first, snapshot) {
		t.Fatal("records from Take were clobbered by later observation")
	}
	second := s.Take()
	for i, id := range ids {
		s.Observe(id, int64(4000+i))
	}
	third := s.Take()
	if len(second) > 0 && len(third) > 0 && &second[0] == &third[0] {
		t.Fatal("buffer still owned by caller was handed out again")
	}
	if len(third) == 0 {
		t.Fatal("no samples after the second Take")
	}
}

// Pending returns the number of packets currently awaiting a marker in
// the temporary buffer.
func (s *Sampler) Pending() int { return len(s.temp) }

// Stats returns (packets observed, markers seen, packets sampled).
func (s *Sampler) Stats() (observed, markers, sampled uint64) {
	return s.observed, s.markers, s.sampled
}

// EffectiveRate returns the empirical fraction of observed packets
// that were sampled so far.
func (s *Sampler) EffectiveRate() float64 {
	if s.observed == 0 {
		return 0
	}
	return float64(s.sampled) / float64(s.observed)
}
