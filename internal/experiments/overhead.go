package experiments

import (
	"fmt"

	"vpm/internal/core"
	"vpm/internal/receipt"
)

// This file reproduces the back-of-the-envelope overhead accounting of
// §7.1 with this implementation's field sizes, so the memory and
// bandwidth experiments can print the paper's scenario rows next to
// ours. The analytic rows count receipts in the fixed-width reference
// layout (receipt.BaseAggReceiptBytes, receipt.SampleRecordBytes: every
// field at full width); the wire codec is smaller — varint-delta record
// times, varint HOPs and counts — and its size is what the measured
// bandwidth row reports.

// memoryBudget is the §7.1 memory requirement of one HOP.
type memoryBudget struct {
	// ActivePaths is the number of concurrently active paths.
	ActivePaths int
	// PerPathStateBytes is the open-receipt state per path.
	PerPathStateBytes int
	// MonitoringCacheBytes = ActivePaths * PerPathStateBytes.
	MonitoringCacheBytes int64
	// TempBufferEntries is the worst-case number of 〈PktID, Time〉
	// records buffered during one reordering window J at the given
	// packet rate.
	TempBufferEntries int64
	// TempBufferBytes converts entries to bytes.
	TempBufferBytes int64
}

// computeMemoryBudget evaluates the §7.1 scenario: activePaths
// concurrently active origin-prefix pairs, an interface observing
// ratePPS packets per second, and per-packet state retained for
// windowNS (the J threshold; the paper sets 10 ms).
func computeMemoryBudget(activePaths int, ratePPS float64, windowNS int64) memoryBudget {
	entries := int64(ratePPS * float64(windowNS) / 1e9)
	return memoryBudget{
		ActivePaths:          activePaths,
		PerPathStateBytes:    receipt.BaseAggReceiptBytes,
		MonitoringCacheBytes: int64(activePaths) * int64(receipt.BaseAggReceiptBytes),
		TempBufferEntries:    entries,
		TempBufferBytes:      entries * receipt.SampleRecordBytes,
	}
}

// bandwidthBudget is the §7.1 receipt-bandwidth estimate for a path.
type bandwidthBudget struct {
	// HOPs on the path.
	HOPs int
	// PktsPerAggregate is the mean aggregate size.
	PktsPerAggregate float64
	// SampleRate is each HOP's sampling rate.
	SampleRate float64
	// BytesPerPacket is the receipt bytes generated per forwarded
	// packet across all HOPs.
	BytesPerPacket float64
	// OverheadFraction is BytesPerPacket / avgPacketBytes.
	OverheadFraction float64
}

// computeBandwidthBudget evaluates the §7.1 scenario analytically: a
// path of nHOPs where each HOP produces one aggregate receipt per
// pktsPerAgg packets and samples sampleRate of the traffic, with
// avgPktBytes mean packet size. Per sampled packet each HOP emits one
// 〈PktID, Time〉 record; per aggregate a base receipt — both at their
// fixed-width reference sizes.
func computeBandwidthBudget(nHOPs int, pktsPerAgg float64, sampleRate float64, avgPktBytes float64) bandwidthBudget {
	perPkt := float64(nHOPs) * (float64(receipt.BaseAggReceiptBytes)/pktsPerAgg +
		sampleRate*float64(receipt.SampleRecordBytes))
	return bandwidthBudget{
		HOPs:             nHOPs,
		PktsPerAggregate: pktsPerAgg,
		SampleRate:       sampleRate,
		BytesPerPacket:   perPkt,
		OverheadFraction: perPkt / avgPktBytes,
	}
}

// The paper's packed field sizes (§7.1). A 〈PktID, Time〉 record is a
// 4-byte packet ID plus a 3-byte time. A base aggregate receipt is
// 53 bytes: a kind byte, the fixed-width 28-byte PathID, 32-bit first,
// last and count fields, and a 64-bit base time plus a 32-bit record
// count — the same order as the paper's 22-byte estimate, which
// amortizes path identification across a reporting session.
const (
	paperRecordBytes  = 7
	paperBaseAggBytes = 53
)

// computeCompactBandwidthBudget is computeBandwidthBudget at the
// paper's packed field sizes (paperRecordBytes, paperBaseAggBytes) —
// what makes the paper's "0.2 bytes per packet" arithmetic directly
// comparable.
func computeCompactBandwidthBudget(nHOPs int, pktsPerAgg float64, sampleRate float64, avgPktBytes float64) bandwidthBudget {
	perPkt := float64(nHOPs) * (paperBaseAggBytes/pktsPerAgg +
		sampleRate*paperRecordBytes)
	return bandwidthBudget{
		HOPs:             nHOPs,
		PktsPerAggregate: pktsPerAgg,
		SampleRate:       sampleRate,
		BytesPerPacket:   perPkt,
		OverheadFraction: perPkt / avgPktBytes,
	}
}

// paperMemoryScenario returns the §7.1 numbers for the paper's own
// field sizes (20-byte per-path state, 7-byte temp records), for
// side-by-side reporting.
func paperMemoryScenario(activePaths int, ratePPS float64, windowNS int64) memoryBudget {
	entries := int64(ratePPS * float64(windowNS) / 1e9)
	return memoryBudget{
		ActivePaths:          activePaths,
		PerPathStateBytes:    20,
		MonitoringCacheBytes: int64(activePaths) * 20,
		TempBufferEntries:    entries,
		TempBufferBytes:      entries * paperRecordBytes,
	}
}

// MemoryRow is one §7.1 memory scenario: the paper's arithmetic next
// to this implementation's.
type MemoryRow struct {
	Scenario    string
	Paper, Ours memoryBudget
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
			Paper:    paperMemoryScenario(100000, 0, j),
			Ours:     computeMemoryBudget(100000, 0, j),
		},
		{
			Scenario: "temp buffer, 10Gbps @ 400B avg (3.125 Mpps), J=10ms",
			Paper:    paperMemoryScenario(0, 3.125e6, j),
			Ours:     computeMemoryBudget(0, 3.125e6, j),
		},
		{
			Scenario: "temp buffer, 10Gbps worst-case min packets (20 Mpps), J=10ms",
			Paper:    paperMemoryScenario(0, 20e6, j),
			Ours:     computeMemoryBudget(0, 20e6, j),
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
	Analytic            bandwidthBudget
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
			Analytic:            computeBandwidthBudget(10, 1000, 0.01, 400),
			MeasuredBytesPerPkt: -1,
			MeasuredPct:         -1,
		},
		{
			Scenario:            "paper scenario, compact encoding (7-byte records, the paper's field sizes)",
			Analytic:            computeCompactBandwidthBudget(10, 1000, 0.01, 400),
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
		Analytic: computeBandwidthBudget(8,
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
