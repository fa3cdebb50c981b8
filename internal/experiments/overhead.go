package experiments

import (
	"fmt"

	"vpm/internal/core"
)

// MemoryRow is one §7.1 memory scenario: the paper's arithmetic next
// to this implementation's.
type MemoryRow struct {
	Scenario    string
	Paper, Ours core.MemoryBudget
}

// MemoryOverhead reproduces the §7.1 memory back-of-envelope:
//   - monitoring cache for 100k active paths (paper: 2 MB at 20 B/path);
//   - temporary buffer for a 10 Gbps interface at J = 10 ms with
//     average 400 B packets (paper: 436 KB) and with worst-case
//     minimum-size packets (paper: 2.8 MB).
func MemoryOverhead() []MemoryRow {
	const j = int64(10_000_000) // 10 ms
	return []MemoryRow{
		{
			Scenario: "monitoring cache, 100k active paths",
			Paper:    core.PaperMemoryScenario(100000, 0, j),
			Ours:     core.ComputeMemoryBudget(100000, 0, j),
		},
		{
			Scenario: "temp buffer, 10Gbps @ 400B avg (3.125 Mpps), J=10ms",
			Paper:    core.PaperMemoryScenario(0, 3.125e6, j),
			Ours:     core.ComputeMemoryBudget(0, 3.125e6, j),
		},
		{
			Scenario: "temp buffer, 10Gbps worst-case min packets (20 Mpps), J=10ms",
			Paper:    core.PaperMemoryScenario(0, 20e6, j),
			Ours:     core.ComputeMemoryBudget(0, 20e6, j),
		},
	}
}

// MemoryRender renders the memory rows.
func MemoryRender(rows []MemoryRow) string {
	header := []string{"Scenario", "Paper cache", "Ours cache", "Paper tempbuf", "Ours tempbuf"}
	var body [][]string
	mb := func(v int64) string { return fmt.Sprintf("%.2f MB", float64(v)/1e6) }
	for _, r := range rows {
		body = append(body, []string{
			r.Scenario,
			mb(r.Paper.MonitoringCacheBytes), mb(r.Ours.MonitoringCacheBytes),
			mb(r.Paper.TempBufferBytes), mb(r.Ours.TempBufferBytes),
		})
	}
	return Markdown(header, body)
}

// BandwidthRow is one §7.1 bandwidth scenario.
type BandwidthRow struct {
	Scenario string
	// Analytic is the closed-form budget; MeasuredBytesPerPkt and
	// MeasuredPct come from an actual deployment run when available
	// (negative when not measured).
	Analytic            core.BandwidthBudget
	MeasuredBytesPerPkt float64
	MeasuredPct         float64
}

// BandwidthOverhead reproduces the §7.1 bandwidth estimate — the
// conservative 10-domain path with 1000-packet aggregates and 1%
// sampling (paper: 0.2 B/pkt, 0.046%) — with our receipt sizes, and
// also measures a real Figure 1 deployment end to end.
func BandwidthOverhead(cfg Config) ([]BandwidthRow, error) {
	cfg = cfg.Normalize()
	rows := []BandwidthRow{
		{
			Scenario:            "paper scenario: 10 domains, 1000-pkt aggs, 1% sampling (analytic, full 64-bit records)",
			Analytic:            core.ComputeBandwidthBudget(10, 1000, 0.01, 400),
			MeasuredBytesPerPkt: -1,
			MeasuredPct:         -1,
		},
		{
			Scenario:            "paper scenario, compact encoding (7-byte records, the paper's field sizes)",
			Analytic:            core.ComputeCompactBandwidthBudget(10, 1000, 0.01, 400),
			MeasuredBytesPerPkt: -1,
			MeasuredPct:         -1,
		},
	}
	// Measured: the Figure 1 path (8 HOPs), default tuning.
	w, err := buildWorld(cfg, worldOpt{})
	if err != nil {
		return nil, err
	}
	var traffic int64
	for i := range w.pkts {
		traffic += int64(w.pkts[i].WireLen())
	}
	rb := w.dep.TotalReceiptBytes()
	rows = append(rows, BandwidthRow{
		Scenario: fmt.Sprintf("measured: Fig.1 path (8 HOPs), default tuning, %d pkts", len(w.pkts)),
		Analytic: core.ComputeBandwidthBudget(8,
			1/core.DefaultDeployConfig().Default.AggRate,
			core.DefaultDeployConfig().Default.SampleRate, 400),
		MeasuredBytesPerPkt: float64(rb) / float64(len(w.pkts)),
		MeasuredPct:         float64(rb) / float64(traffic) * 100,
	})
	return rows, nil
}

// BandwidthRender renders the bandwidth rows.
func BandwidthRender(rows []BandwidthRow) string {
	header := []string{"Scenario", "Analytic B/pkt", "Analytic %", "Measured B/pkt", "Measured %"}
	var body [][]string
	for _, r := range rows {
		meas1, meas2 := "-", "-"
		if r.MeasuredBytesPerPkt >= 0 {
			meas1 = fmt.Sprintf("%.3f", r.MeasuredBytesPerPkt)
			meas2 = fmt.Sprintf("%.4f%%", r.MeasuredPct)
		}
		body = append(body, []string{
			r.Scenario,
			fmt.Sprintf("%.3f", r.Analytic.BytesPerPacket),
			fmt.Sprintf("%.4f%%", r.Analytic.OverheadFraction*100),
			meas1, meas2,
		})
	}
	return Markdown(header, body)
}
