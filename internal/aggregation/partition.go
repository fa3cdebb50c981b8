// Package aggregation implements the paper's Algorithm 2 (Partition)
// and the verifier-side machinery of §6: hash-selected cutting points
// partition each path's packet stream into aggregates; per-aggregate
// receipts carry an AggTrans window (the packet IDs observed within J
// time units of the cutting point) so that a verifier can re-align
// receipts from HOPs that observed reordered streams; and Join
// computes the finest common coarsening of two HOPs' aggregate sets so
// that loss can be computed per joined aggregate.
package aggregation

import (
	"fmt"

	"vpm/internal/hashing"
	"vpm/internal/receipt"
)

// Config parameterizes a Partitioner.
type Config struct {
	// CutRate is the locally tunable probability that a packet is a
	// cutting point (its digest exceeds the partition threshold δ).
	// The mean aggregate size is 1/CutRate packets.
	CutRate float64
	// WindowNS is the safety reordering threshold J: two packets
	// observed more than J apart are assumed not to reorder (§6.3,
	// a conservative 10 ms by default). The AggTrans window covers
	// [cut-J, cut+J]. Zero disables patch-up information (the
	// Difference Aggregator ++ degenerate case).
	WindowNS int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.CutRate <= 0 || c.CutRate > 1 {
		return fmt.Errorf("aggregation: cut rate %v outside (0,1]", c.CutRate)
	}
	if c.WindowNS < 0 {
		return fmt.Errorf("aggregation: negative window %d", c.WindowNS)
	}
	return nil
}

// pendingReceipt is a closed aggregate still collecting the post-cut
// half of its AggTrans window.
type pendingReceipt struct {
	rec      receipt.AggReceipt
	cutTime  int64 // observation time of the cutting packet
	deadline int64 // cutTime + J
}

// Partitioner is the per-path aggregation state of one HOP: one open
// aggregate receipt (constant state per aggregate, constant work per
// packet — Algorithm 2's footprint), the recent-packet window for
// AggTrans, and closed receipts awaiting collection, fed one packet at
// a time — the algorithm as the paper states it, and the reference the
// deployed collector (core.Collector, which runs Algorithms 1 and 2
// together over one record buffer per path) is held to. Not safe for
// concurrent use.
type Partitioner struct {
	delta    uint64 // partition threshold δ
	windowNS int64
	path     receipt.PathID

	openFirst uint64
	openLast  uint64
	openCnt   uint64
	hasOpen   bool
	// recent[recentHead:] are the observations within the last J;
	// the head index advances on eviction and the slice is compacted
	// only when the dead prefix dominates, keeping per-packet work
	// amortized O(1).
	recent     []receipt.SampleRecord
	recentHead int
	pending    []pendingReceipt
	closed     []receipt.AggReceipt
	lastTime   int64
	observed   uint64
	cutsSeen   uint64
}

// Init makes p a fresh Partitioner for one path, in place, so state
// can embed a Partitioner by value. It panics on an invalid config;
// use Config.Validate for user input.
func (p *Partitioner) Init(cfg Config, path receipt.PathID) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	*p = Partitioner{
		delta:    hashing.ThresholdForRate(cfg.CutRate),
		windowNS: cfg.WindowNS,
		path:     path,
	}
}

// Observe processes one packet observation (Algorithm 2): pktID is the
// packet's digest, tNS the HOP's observation timestamp. Timestamps
// must be non-decreasing per HOP.
func (p *Partitioner) Observe(pktID uint64, tNS int64) {
	p.observed++
	prev := p.lastTime
	p.lastTime = tNS

	// Maintain the recent window and flush pending receipts whose
	// post-cut window has elapsed.
	p.evict(prev, tNS)

	if hashing.Exceeds(pktID, p.delta) {
		// Cutting point: close the current aggregate (if any) and
		// open a new one starting at this packet.
		p.cutsSeen++
		if p.hasOpen {
			rec := receipt.AggReceipt{
				Path:   p.path,
				Agg:    receipt.AggID{First: p.openFirst, Last: p.openLast},
				PktCnt: p.openCnt,
			}
			if p.windowNS > 0 {
				// Pre-cut half of the window: recent observations in
				// [tNS-J, tNS].
				for _, r := range p.recent[p.recentHead:] {
					if r.TimeNS >= tNS-p.windowNS {
						rec.AggTrans = append(rec.AggTrans, r)
					}
				}
				// The cutting packet itself anchors the window.
				rec.AggTrans = append(rec.AggTrans, receipt.SampleRecord{PktID: pktID, TimeNS: tNS})
				p.pending = append(p.pending, pendingReceipt{
					rec:      rec,
					cutTime:  tNS,
					deadline: tNS + p.windowNS,
				})
			} else {
				p.closed = append(p.closed, rec)
			}
		}
		p.openFirst, p.openLast, p.openCnt, p.hasOpen = pktID, pktID, 1, true
	} else {
		if !p.hasOpen {
			// Stream began mid-aggregate: open an implicit aggregate
			// so packets before the first cut are still counted.
			p.openFirst, p.hasOpen = pktID, true
		}
		p.openLast = pktID
		p.openCnt++
	}

	if p.windowNS > 0 {
		rec := receipt.SampleRecord{PktID: pktID, TimeNS: tNS}
		p.recent = append(p.recent, rec)
		// Feed the post-cut half of any pending receipt windows.
		for i := range p.pending {
			if tNS > p.pending[i].cutTime && tNS <= p.pending[i].deadline {
				p.pending[i].rec.AggTrans = append(p.pending[i].rec.AggTrans, rec)
			}
		}
	}
}

// evict drops recent records older than J and finalizes pending
// receipts whose deadline has passed. prev is the time of the
// observation before now's (see evictRecent).
func (p *Partitioner) evict(prev, now int64) {
	if p.windowNS <= 0 {
		return
	}
	p.evictRecent(prev, now)
	done := 0
	for done < len(p.pending) && p.pending[done].deadline < now {
		p.closed = append(p.closed, p.pending[done].rec)
		done++
	}
	if done > 0 {
		p.pending = append(p.pending[:0], p.pending[done:]...)
	}
}

// evictRecent advances the recent window past records older than J.
// prev is the previous lastTime; timestamps never decrease, so no
// record in the window is after it. When prev is itself older than J,
// so is the whole window, and the window is dropped without reading
// it. On a path that sees a packet less often than every J — most keys
// of a many-key mesh — that read would be the first touch of memory
// gone cold since the path's last packet.
func (p *Partitioner) evictRecent(prev, now int64) {
	if prev < now-p.windowNS {
		p.recent, p.recentHead = p.recent[:0], 0
		return
	}
	for p.recentHead < len(p.recent) && p.recent[p.recentHead].TimeNS < now-p.windowNS {
		p.recentHead++
	}
	// Compact only when the dead prefix dominates the slice.
	if p.recentHead > 64 && p.recentHead*2 > len(p.recent) {
		n := copy(p.recent, p.recent[p.recentHead:])
		p.recent = p.recent[:n]
		p.recentHead = 0
	}
}

// Take returns the receipts finalized since the previous Take and
// resets the accumulator. Ownership of the returned slice passes to
// the caller; the partitioner starts a fresh one.
func (p *Partitioner) Take() []receipt.AggReceipt {
	out := p.closed
	p.closed = nil
	return out
}

// Flush finalizes all pending state — the still-open aggregate and any
// receipts waiting out their post-cut window — and appends every
// remaining receipt to dst, in the order Take would have returned
// them, returning the extended slice. Call at end of stream or
// reporting period. The partitioner keeps its buffers, emptied.
func (p *Partitioner) Flush(dst []receipt.AggReceipt) []receipt.AggReceipt {
	dst = append(dst, p.closed...)
	clear(p.closed)
	p.closed = p.closed[:0]
	for _, pr := range p.pending {
		dst = append(dst, pr.rec)
	}
	clear(p.pending)
	p.pending = p.pending[:0]
	if p.hasOpen && p.openCnt > 0 {
		rec := receipt.AggReceipt{
			Path:   p.path,
			Agg:    receipt.AggID{First: p.openFirst, Last: p.openLast},
			PktCnt: p.openCnt,
		}
		if p.windowNS > 0 {
			for _, r := range p.recent[p.recentHead:] {
				if r.TimeNS >= p.lastTime-p.windowNS {
					rec.AggTrans = append(rec.AggTrans, r)
				}
			}
		}
		dst = append(dst, rec)
		p.hasOpen = false
		p.openCnt = 0
	}
	return dst
}
