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
// RollingVerifier.VerifyEpoch), and the worker that checks a key also
// creates and feeds that key's detectors, through a seqdetect.Feeder of
// its own, as each check ends. Every detector belongs to one key, and a
// key's checks run on one worker in their fixed order, so each detector
// takes its evidence in the same order in every run. A detector is
// created at the position (key's place in the epoch's work order, slot's
// place among the key's slots) — the order a serial pass over the keys
// would create detectors in — and the engine emits the crossings of one epoch
// in that order, once the calling goroutine has joined the workers. So
// crossings land on the same packet and verdicts come out in the same
// order in every run, at any number of workers.

// keySeq is one traffic key's share of the sequential arm: the key's
// string form, which names its detectors, and the handles of its
// detectors laid out route by route — three per owned link (loss,
// delay, fabricate), then one per domain (bias), with bias holding the
// slot of each domain's bias detector. A domain another route crosses
// too shares its slot (see layOut). A slot stays nil until its first
// check is fed, so detectors are created in the order they are first
// fed, and after that nothing is formatted or looked up to reach them.
// The name is set by the worker creating the key's first detector, its
// only reader.
type keySeq struct {
	name  string
	slots []*seqdetect.Detector
	bias  []int32
}

// keySeqFor returns key's detector handles under plan, making them empty
// the first time the key is verified. Handles, slots and bias slots are
// cut from chunked slabs.
func (rv *RollingVerifier) keySeqFor(key packet.PathKey, plan *keyPlan) *keySeq {
	if ks := rv.seqKeys[key]; ks != nil {
		return ks
	}
	if len(rv.seqKeySlab) == 0 {
		rv.seqKeySlab = make([]keySeq, seqKeyChunk)
	}
	ks := &rv.seqKeySlab[0]
	rv.seqKeySlab = rv.seqKeySlab[1:]
	n := ks.layOut(plan, &rv.seqBiasSlab)
	if n > len(rv.seqSlab) {
		rv.seqSlab = make([]*seqdetect.Detector, max(n, seqSlabChunk))
	}
	ks.slots, rv.seqSlab = rv.seqSlab[:n:n], rv.seqSlab[n:]
	rv.seqKeys[key] = ks
	return ks
}

// layOut cuts ks.bias from slab and fills it with the slot of each of
// plan's domains' bias detector, route by route, and returns how many
// slots the key's handles take. A domain an earlier route crosses too —
// the same HOPs and name, so the same detector scope — shares that
// route's slot, and its own stays empty.
func (ks *keySeq) layOut(plan *keyPlan, slab *[]int32) int {
	n := 0
	for r := range plan.routes {
		n += len(plan.routes[r].domains)
	}
	if n > len(*slab) {
		*slab = make([]int32, max(n, seqSlabChunk))
	}
	ks.bias, *slab = (*slab)[:0:n], (*slab)[n:]
	slots := 0
	for r := range plan.routes {
		rp := &plan.routes[r]
		slots += 3 * len(rp.owned)
		for _, si := range rp.domains {
			ks.bias = append(ks.bias, ks.biasSlot(plan, plan.layouts[r].Segments[si], slots))
			slots++
		}
	}
	return slots
}

// biasSlot returns the slot of seg's bias detector: that of the first
// domain laid out before it with the same HOPs and name, else next.
func (ks *keySeq) biasSlot(plan *keyPlan, seg Segment, next int) int32 {
	k := 0
	for r := range plan.routes {
		for _, si := range plan.routes[r].domains {
			if k == len(ks.bias) {
				return int32(next)
			}
			if o := &plan.layouts[r].Segments[si]; o.Up == seg.Up && o.Down == seg.Down && o.Name == seg.Name {
				return ks.bias[k]
			}
			k++
		}
	}
	return int32(next)
}

// seqSlabChunk is how many detector or bias slots one slab chunk holds,
// and seqKeyChunk how many keys' handles.
const (
	seqSlabChunk = 4096
	seqKeyChunk  = 256
)

// seqArm is one worker's share of the arm: its feeder; the key under
// check, its handles and base, the key's place in the epoch's work order
// shifted above any slot's; the detector slots of the check under way
// and the position its first detector is created at; and that check's
// evidence. The worker points it at each key and, through at, at each
// check before running it; the check fills items and hands them to its
// detectors as it ends (link, bias). items holds one check's stream at
// a time and is kept from check to check.
type seqArm struct {
	feeder *seqdetect.Feeder
	key    packet.PathKey
	ks     *keySeq
	base   uint64
	dets   []*seqdetect.Detector
	pos    uint64
	items  []seqdetect.Evidence
}

// at points a at the key's n slots from slot, whose detectors, if
// the check creates them, take the positions from the key's s-th on.
func (a *seqArm) at(slot, n, s int) {
	a.dets, a.pos = a.ks.slots[slot:slot+n], a.base|uint64(s)
}

// scope names the detector of up→down (of domain, for a bias detector)
// under the key being checked.
func (a *seqArm) scope(up, down receipt.HOPID, domain string) seqdetect.Scope {
	if a.ks.name == "" {
		a.ks.name = a.key.String()
	}
	return seqdetect.Scope{Key: a.ks.name, Up: uint32(up), Down: uint32(down), Domain: domain}
}

// link feeds the check of the link up→down to its detectors, creating
// them on first use: the loss and delay detectors take items[:mid]
// (keep/drop trials interleaved with matched link deltas — each
// detector skips the other's kinds), the fabricate detector items[mid:].
func (a *seqArm) link(up, down receipt.HOPID, mid int) {
	d := a.dets
	if d[0] == nil {
		sc := a.scope(up, down, "")
		d[0] = a.feeder.Detector(sc, seqdetect.ClassLoss, a.pos)
		d[1] = a.feeder.Detector(sc, seqdetect.ClassDelay, a.pos+1)
		d[2] = a.feeder.Detector(sc, seqdetect.ClassFabricate, a.pos+2)
	}
	a.feeder.Observe(d[0], a.items[:mid])
	a.feeder.Observe(d[1], a.items[:mid])
	a.feeder.Observe(d[2], a.items[mid:])
}

// bias feeds the domain segment up→down named domain its items,
// creating its bias detector on first use.
func (a *seqArm) bias(up, down receipt.HOPID, domain string) {
	d := a.dets
	if d[0] == nil {
		d[0] = a.feeder.Detector(a.scope(up, down, domain), seqdetect.ClassBias, a.pos)
	}
	a.feeder.Observe(d[0], a.items)
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
