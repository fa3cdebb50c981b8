package core

import (
	"fmt"

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

// MemoryBudget is the §7.1 memory requirement of one HOP.
type MemoryBudget struct {
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

// String renders the budget in the paper's units.
func (m MemoryBudget) String() string {
	return fmt.Sprintf("paths=%d cache=%.2fMB tempbuf=%.0f entries (%.2fMB)",
		m.ActivePaths,
		float64(m.MonitoringCacheBytes)/1e6,
		float64(m.TempBufferEntries),
		float64(m.TempBufferBytes)/1e6)
}

// ComputeMemoryBudget evaluates the §7.1 scenario: activePaths
// concurrently active origin-prefix pairs, an interface observing
// ratePPS packets per second, and per-packet state retained for
// windowNS (the J threshold; the paper sets 10 ms).
func ComputeMemoryBudget(activePaths int, ratePPS float64, windowNS int64) MemoryBudget {
	entries := int64(ratePPS * float64(windowNS) / 1e9)
	return MemoryBudget{
		ActivePaths:          activePaths,
		PerPathStateBytes:    receipt.BaseAggReceiptBytes,
		MonitoringCacheBytes: int64(activePaths) * int64(receipt.BaseAggReceiptBytes),
		TempBufferEntries:    entries,
		TempBufferBytes:      entries * receipt.SampleRecordBytes,
	}
}

// BandwidthBudget is the §7.1 receipt-bandwidth estimate for a path.
type BandwidthBudget struct {
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

// String renders the budget.
func (b BandwidthBudget) String() string {
	return fmt.Sprintf("hops=%d agg=%.0fpkt sample=%.2g%% -> %.3f B/pkt (%.4f%%)",
		b.HOPs, b.PktsPerAggregate, b.SampleRate*100, b.BytesPerPacket, b.OverheadFraction*100)
}

// ComputeBandwidthBudget evaluates the §7.1 scenario analytically: a
// path of nHOPs where each HOP produces one aggregate receipt per
// pktsPerAgg packets and samples sampleRate of the traffic, with
// avgPktBytes mean packet size. Per sampled packet each HOP emits one
// 〈PktID, Time〉 record; per aggregate a base receipt — both at their
// fixed-width reference sizes.
func ComputeBandwidthBudget(nHOPs int, pktsPerAgg float64, sampleRate float64, avgPktBytes float64) BandwidthBudget {
	perPkt := float64(nHOPs) * (float64(receipt.BaseAggReceiptBytes)/pktsPerAgg +
		sampleRate*float64(receipt.SampleRecordBytes))
	return BandwidthBudget{
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

// ComputeCompactBandwidthBudget is ComputeBandwidthBudget at the
// paper's packed field sizes (paperRecordBytes, paperBaseAggBytes) —
// what makes the paper's "0.2 bytes per packet" arithmetic directly
// comparable.
func ComputeCompactBandwidthBudget(nHOPs int, pktsPerAgg float64, sampleRate float64, avgPktBytes float64) BandwidthBudget {
	perPkt := float64(nHOPs) * (paperBaseAggBytes/pktsPerAgg +
		sampleRate*paperRecordBytes)
	return BandwidthBudget{
		HOPs:             nHOPs,
		PktsPerAggregate: pktsPerAgg,
		SampleRate:       sampleRate,
		BytesPerPacket:   perPkt,
		OverheadFraction: perPkt / avgPktBytes,
	}
}

// PaperMemoryScenario returns the §7.1 numbers for the paper's own
// field sizes (20-byte per-path state, 7-byte temp records), for
// side-by-side reporting.
func PaperMemoryScenario(activePaths int, ratePPS float64, windowNS int64) MemoryBudget {
	entries := int64(ratePPS * float64(windowNS) / 1e9)
	return MemoryBudget{
		ActivePaths:          activePaths,
		PerPathStateBytes:    20,
		MonitoringCacheBytes: int64(activePaths) * 20,
		TempBufferEntries:    entries,
		TempBufferBytes:      entries * paperRecordBytes,
	}
}
