package core

import (
	"vpm/internal/hashing"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/seqdetect"
)

// The sequential arm (VerifierConfig.Sequential) runs Wald SPRT /
// Bayes-factor detectors concurrently with the per-epoch batch checks.
// The batch checks stay the ground truth — their verdict bytes are
// identical whether the arm is on or off — while the sequential arm
// accumulates per-packet evidence across epochs and can flag a lying
// link after a fraction of one epoch's packets.
//
// Determinism: an epoch's keys are checked on several goroutines (see
// RollingVerifier.VerifyEpoch), and the checks never touch the engine.
// Each check captures what it would feed — its evidence stream and the
// slots of the link or domain it judged — in its worker's seqCapture,
// one run of feeds per key. Once every worker is done, the calling
// goroutine replays the feeds key by key in work order, creating and
// feeding detectors exactly as a serial pass would, so the engine sees
// one stream and crossings land on the same packet in every run, at any
// number of workers.

// keySeq is one traffic key's share of the sequential arm: the key's
// string form, which names its detectors, and the handles of its
// detectors laid out route by route — three per owned link (loss,
// delay, fabricate), then one per domain (bias). A slot stays nil until
// the replay first feeds its detector, so detectors are created in the
// order they are first fed, and after that nothing is formatted or
// looked up to reach them.
type keySeq struct {
	name  string
	slots []*seqdetect.Detector
}

// keySeqFor returns key's detector handles under plan, making them empty
// the first time the key is verified. Slots are cut from one chunked
// slab.
func (rv *RollingVerifier) keySeqFor(key packet.PathKey, plan *keyPlan) keySeq {
	if ks, ok := rv.seqKeys[key]; ok {
		return ks
	}
	n := 0
	for ri := range plan.routes {
		n += 3*len(plan.routes[ri].owned) + len(plan.routes[ri].domains)
	}
	if n > len(rv.seqSlab) {
		rv.seqSlab = make([]*seqdetect.Detector, max(n, seqSlabChunk))
	}
	ks := keySeq{name: key.String(), slots: rv.seqSlab[:n:n]}
	rv.seqSlab = rv.seqSlab[n:]
	rv.seqKeys[key] = ks
	return ks
}

// seqSlabChunk is how many detector slots one slab chunk holds.
const seqSlabChunk = 4096

// seqCapture is one worker's record of what its checks feed the
// sequential arm, in the order it ran them. The worker points key and
// dets at the key and slots of each check before running it; the check
// appends its evidence to items and files a feed. Both slices are
// grow-only and kept from epoch to epoch.
type seqCapture struct {
	items []seqdetect.Evidence
	feeds []seqFeed
	key   int
	dets  []*seqdetect.Detector
	// next is the replay's cursor into feeds.
	next int
}

// seqFeed is one check's share of the arm. A link's loss and delay
// detectors take items[lo:mid] (keep/drop trials interleaved with
// matched link deltas — each detector skips the other's kinds) and its
// fabricate detector items[mid:hi]; a domain's (bias set) bias detector
// takes items[lo:hi].
type seqFeed struct {
	key         int // the key's position in the epoch's work order
	dets        []*seqdetect.Detector
	up, down    receipt.HOPID
	domain      string
	bias        bool
	lo, mid, hi int
}

// reset empties the capture for a new epoch.
func (c *seqCapture) reset() {
	c.items, c.feeds, c.next = c.items[:0], c.feeds[:0], 0
}

// link files the feed of the link up→down: its two streams run from lo
// to mid and from mid to the end of items.
func (c *seqCapture) link(up, down receipt.HOPID, lo, mid int) {
	c.feeds = append(c.feeds, seqFeed{key: c.key, dets: c.dets, up: up, down: down, lo: lo, mid: mid, hi: len(c.items)})
}

// bias files the feed of the domain segment up→down named domain: its
// stream runs from lo to the end of items.
func (c *seqCapture) bias(up, down receipt.HOPID, domain string, lo int) {
	c.feeds = append(c.feeds, seqFeed{key: c.key, dets: c.dets, up: up, down: down, domain: domain, bias: true, lo: lo, hi: len(c.items)})
}

// replaySequential feeds the engine what the epoch's workers captured,
// key by key in work order: key i's feeds are the next run of worker
// i mod w's, which checked its keys in ascending order.
func (rv *RollingVerifier) replaySequential(job *epochJob, workers []*keyWorker) {
	for i := range job.keys {
		c := &workers[i%len(workers)].capture
		for ; c.next < len(c.feeds) && c.feeds[c.next].key == i; c.next++ {
			rv.feed(job.seqs[i].name, &c.feeds[c.next], c.items)
		}
	}
}

// feed hands one captured check to its detectors, creating them on
// first use with names under key.
func (rv *RollingVerifier) feed(key string, f *seqFeed, items []seqdetect.Evidence) {
	d := f.dets
	if d[0] == nil {
		sc := seqdetect.Scope{Key: key, Up: uint32(f.up), Down: uint32(f.down), Domain: f.domain}
		if f.bias {
			d[0] = rv.seq.Detector(sc, seqdetect.ClassBias)
		} else {
			d[0] = rv.seq.Detector(sc, seqdetect.ClassLoss)
			d[1] = rv.seq.Detector(sc, seqdetect.ClassDelay)
			d[2] = rv.seq.Detector(sc, seqdetect.ClassFabricate)
		}
	}
	if f.bias {
		d[0].Observe(items[f.lo:f.hi])
		return
	}
	d[0].Observe(items[f.lo:f.mid])
	d[1].Observe(items[f.lo:f.mid])
	d[2].Observe(items[f.mid:f.hi])
}

// seqMarkerKind classifies a domain delay sample for the bias
// detector: markers versus σ-samples, by the same hash-threshold rule
// the HOPs use (§3).
func seqMarkerKind(pid, mu uint64) seqdetect.Kind {
	if hashing.Exceeds(pid, mu) {
		return seqdetect.KindMarkerDelta
	}
	return seqdetect.KindOtherDelta
}

// endSequentialEpoch closes the engine's epoch and returns the epoch's
// new sequential verdicts; nil when the arm is off.
func (rv *RollingVerifier) endSequentialEpoch(epoch EpochID) []seqdetect.SeqVerdict {
	if rv.seq == nil {
		return nil
	}
	return rv.seq.EndEpoch(uint64(epoch))
}
