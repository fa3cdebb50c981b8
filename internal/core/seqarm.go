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
// Determinism: the link and domain checks of an epoch run one after
// another in work order and feed the engine as they go, so the engine
// sees one stream and crossings land on the same packet in every run.

// keySeq is one traffic key's share of the sequential arm: the key's
// string form, which names its detectors, and the handles of its
// detectors laid out route by route — three per owned link (loss,
// delay, fabricate), then one per domain (bias). A slot stays nil until
// the check that first feeds its detector fills it, so detectors are
// created in the order they are first fed, and after that nothing is
// formatted or looked up to reach them.
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

// linkDetectors returns the loss, delay and fabricate detectors of the
// link up→down of the key under check.
func (s *checkScope) linkDetectors(up, down receipt.HOPID) []*seqdetect.Detector {
	d := s.dets
	if d[0] == nil {
		sc := seqdetect.Scope{Key: s.seqKey, Up: uint32(up), Down: uint32(down)}
		d[0] = s.seq.Detector(sc, seqdetect.ClassLoss)
		d[1] = s.seq.Detector(sc, seqdetect.ClassDelay)
		d[2] = s.seq.Detector(sc, seqdetect.ClassFabricate)
	}
	return d
}

// biasDetector returns the bias detector of domain segment seg of the
// key under check.
func (s *checkScope) biasDetector(seg Segment) *seqdetect.Detector {
	if s.dets[0] == nil {
		sc := seqdetect.Scope{Key: s.seqKey, Up: uint32(seg.Up), Down: uint32(seg.Down), Domain: seg.Name}
		s.dets[0] = s.seq.Detector(sc, seqdetect.ClassBias)
	}
	return s.dets[0]
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
