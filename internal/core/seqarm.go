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

// seqLinkScope names a link detector's scope.
func seqLinkScope(key packet.PathKey, up, down receipt.HOPID) seqdetect.Scope {
	return seqdetect.Scope{Key: key.String(), Up: uint32(up), Down: uint32(down)}
}

// seqDomainScope names a domain-segment bias detector's scope.
func seqDomainScope(key packet.PathKey, seg Segment) seqdetect.Scope {
	return seqdetect.Scope{
		Key:    key.String(),
		Up:     uint32(seg.Up),
		Down:   uint32(seg.Down),
		Domain: seg.Name,
	}
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

// SeqVerdicts returns every sequential verdict the arm has emitted so
// far, in emission order; nil when the arm is off.
func (rv *RollingVerifier) SeqVerdicts() []seqdetect.SeqVerdict {
	if rv.seq == nil {
		return nil
	}
	return rv.seq.Verdicts()
}
