package core

import (
	"vpm/internal/receipt"
)

// Processor is the control-plane module of §7: it reads the finalized
// receipts out of a collector's monitoring cache, retains
// them for dissemination, and accounts for the receipt bandwidth —
// the tunable cost knob of the protocol.
type Processor struct {
	c *Collector

	Samples []receipt.SampleReceipt
	Aggs    []receipt.AggReceipt

	receiptBytes int64
}

// NewProcessor attaches a processor to a collector.
func NewProcessor(c *Collector) *Processor {
	return &Processor{c: c}
}

// Finalize flushes the collector's state into the processor — the one
// drain of a one-shot run; continuous operation drains per epoch
// through an EpochCollector instead.
func (p *Processor) Finalize() {
	samples, aggs := p.c.Flush()
	p.receiptBytes += int64(receipt.WireSize(samples, aggs))
	p.Samples = append(p.Samples, samples...)
	p.Aggs = append(p.Aggs, aggs...)
}

// CombinedSamples merges all retained sample receipts per path into
// one receipt each (the ⊎ of §4), returning one combined receipt per
// path observed by this HOP.
func (p *Processor) CombinedSamples() []receipt.SampleReceipt {
	byPath := make(map[receipt.PathID]int)
	var out []receipt.SampleReceipt
	for _, s := range p.Samples {
		if i, ok := byPath[s.Path]; ok {
			out[i].Samples = append(out[i].Samples, s.Samples...)
		} else {
			byPath[s.Path] = len(out)
			cp := receipt.SampleReceipt{Path: s.Path}
			cp.Samples = append(cp.Samples, s.Samples...)
			out = append(out, cp)
		}
	}
	return out
}

// ReceiptBytes returns the cumulative wire size of all receipts this
// processor has retained — the numerator of the §7.1 bandwidth
// overhead.
func (p *Processor) ReceiptBytes() int64 { return p.receiptBytes }
