package delaymodel

import (
	"testing"

	"vpm/internal/stats"
)

// drive feeds n foreground packets of size bytes at the given rate and
// returns their delays in milliseconds.
func drive(t *testing.T, q *Queue, n int, gapNS int64, bytes int) []float64 {
	t.Helper()
	delays := make([]float64, n)
	now := int64(0)
	for i := 0; i < n; i++ {
		d := q.DelayOf(now, bytes)
		if d < 0 {
			t.Fatalf("negative delay %d at packet %d", d, i)
		}
		delays[i] = float64(d) / 1e6
		now += gapNS
	}
	return delays
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{CapacityBps: 0, QueueBytes: 1}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(Config{CapacityBps: 1e9, QueueBytes: 0}); err == nil {
		t.Error("zero queue accepted")
	}
	bad := BurstyUDPScenario(1)
	bad.UDP[0].MeanOnNS = 0
	if _, err := New(bad); err == nil {
		t.Error("invalid UDP flow accepted")
	}
	badTCP := mixedScenario(1)
	badTCP.TCP[0].RTTNS = 0
	if _, err := New(badTCP); err == nil {
		t.Error("invalid TCP flow accepted")
	}
}

func TestNoBackgroundMinimalDelay(t *testing.T) {
	q, err := New(Config{CapacityBps: 1e9, QueueBytes: 1e6, PropagationNS: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	// Sparse foreground arrivals: queue fully drains between packets,
	// so delay is own transmission + propagation.
	delays := drive(t, q, 100, 1e6 /* 1ms apart */, 400)
	wantMS := (400*8/1e9)*1e3 + 1.0
	for i, d := range delays {
		if d < 0.99 || d > wantMS+0.01 {
			t.Fatalf("packet %d delay %vms, want ~%vms", i, d, wantMS)
		}
	}
}

func TestCongestionCreatesSpikes(t *testing.T) {
	q, err := New(BurstyUDPScenario(11))
	if err != nil {
		t.Fatal(err)
	}
	// 100k pkt/s foreground of 400B packets for 2 simulated seconds.
	delays := drive(t, q, 200000, 10_000, 400)
	s := stats.Summarize(delays)
	if s.P99 < 2*s.P50 {
		t.Errorf("expected spiky delays: p50=%vms p99=%vms", s.P50, s.P99)
	}
	if s.Max > float64(q.MaxDelayNS(400))/1e6+0.001 {
		t.Errorf("delay %vms exceeds structural max %vms", s.Max, float64(q.MaxDelayNS(400))/1e6)
	}
	if s.P90 < 1.0 {
		t.Errorf("congested p90 %vms suspiciously small", s.P90)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []float64 {
		q, err := New(BurstyUDPScenario(42))
		if err != nil {
			t.Fatal(err)
		}
		return drive(t, q, 50000, 10_000, 400)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSeedsProduceDifferentProcesses(t *testing.T) {
	q1, _ := New(BurstyUDPScenario(1))
	q2, _ := New(BurstyUDPScenario(2))
	d1 := drive(t, q1, 50000, 10_000, 400)
	d2 := drive(t, q2, 50000, 10_000, 400)
	same := 0
	for i := range d1 {
		if d1[i] == d2[i] {
			same++
		}
	}
	if same == len(d1) {
		t.Error("different seeds produced identical delay series")
	}
}

func TestBacklogBounded(t *testing.T) {
	cfg := BurstyUDPScenario(3)
	q, _ := New(cfg)
	now := int64(0)
	for i := 0; i < 300000; i++ {
		q.DelayOf(now, 400)
		if q.Backlog() > cfg.QueueBytes+1 {
			t.Fatalf("backlog %v exceeds buffer %v", q.Backlog(), cfg.QueueBytes)
		}
		now += 10_000
	}
	if q.DroppedBytes() == 0 {
		t.Error("bursty scenario should overflow the buffer at least once")
	}
}

func TestMixedScenarioAIMD(t *testing.T) {
	q, err := New(mixedScenario(5))
	if err != nil {
		t.Fatal(err)
	}
	delays := drive(t, q, 200000, 10_000, 400)
	s := stats.Summarize(delays)
	if s.StdDev == 0 {
		t.Error("AIMD scenario produced constant delays")
	}
	// AIMD rates should stay clamped below capacity.
	for _, tc := range q.tcp {
		if tc.rateBps > q.cfg.CapacityBps {
			t.Errorf("AIMD rate %v exceeds capacity", tc.rateBps)
		}
	}
}

func TestDelayMonotoneWithBacklog(t *testing.T) {
	// Two back-to-back arrivals: the second waits behind the first.
	q, _ := New(Config{CapacityBps: 1e8, QueueBytes: 1e6, PropagationNS: 0})
	d1 := q.DelayOf(0, 1500)
	d2 := q.DelayOf(0, 1500)
	if d2 <= d1 {
		t.Errorf("second packet delay %d should exceed first %d", d2, d1)
	}
}

func TestMaxDelay(t *testing.T) {
	q, _ := New(Config{CapacityBps: 1e9, QueueBytes: 2.5e6, PropagationNS: 1e6})
	// Full buffer: 2.5e6 bytes at 125e6 B/s = 20ms, + 1ms prop.
	got := float64(q.MaxDelayNS(0)) / 1e6
	if got < 20.9 || got > 21.1 {
		t.Errorf("MaxDelayNS = %vms, want ~21ms", got)
	}
}

func BenchmarkDelayOf(b *testing.B) {
	q, _ := New(BurstyUDPScenario(1))
	now := int64(0)
	for i := 0; i < b.N; i++ {
		q.DelayOf(now, 400)
		now += 10_000
	}
}

// mixedScenario adds long-lived AIMD flows to the bursty UDP flow,
// the paper's "long-lived TCP or UDP flows compete for/saturate the
// bandwidth of a bottleneck link" alternative.
func mixedScenario(seed uint64) Config {
	c := BurstyUDPScenario(seed)
	c.UDP[0].RateBps = 6e8
	c.TCP = []AIMD{
		{RTTNS: 4e7, StartBps: 2e8},
		{RTTNS: 8e7, StartBps: 1e8},
	}
	return c
}

// Backlog returns the current queue occupancy in bytes (for tests and
// instrumentation).
func (q *Queue) Backlog() float64 { return q.backlogBytes }

// DroppedBytes returns the cumulative background bytes discarded by
// the droptail buffer.
func (q *Queue) DroppedBytes() float64 { return q.drops }

// MaxDelayNS returns the largest delay the scenario can produce: a
// full buffer ahead of the packet, plus propagation.
func (q *Queue) MaxDelayNS(pktBytes int) int64 {
	drain := q.cfg.CapacityBps / 8
	return int64((q.cfg.QueueBytes+float64(pktBytes))/drain*1e9) + q.cfg.PropagationNS
}
