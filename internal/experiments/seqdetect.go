package experiments

import (
	"math"

	"vpm/internal/seqdetect"
	"vpm/internal/stats"
)

// This file sweeps the sequential arm's detection-latency frontier:
// for each attack magnitude — a delay mean shift in σ units, or a
// suppression drop fraction — it measures how many epochs of evidence
// the SPRT needs to cross, against a per-epoch batch test at the same
// false-positive budget that discards its state at every epoch seal.
// The frontier is the quantitative form of the matrix's adaptive rows:
// above the batch test's single-epoch noise floor the two arms agree,
// and below it the batch arm never fires at any horizon while the
// SPRT's latency merely grows as the magnitude shrinks toward
// MinDetectableShiftSigma.
//
// The sweep drives the seqdetect engine directly over synthetic
// evidence streams (seeded, deterministic) rather than full netsim
// worlds: the per-epoch evidence budget n is matched to what one
// matrix link yields per epoch, so the curves compose with the matrix
// rows that BENCH_8 carries alongside them.

// SeqFrontierRow is one magnitude point of the latency frontier.
type SeqFrontierRow struct {
	// Channel is the evidence class swept: "delay" (Gaussian mean
	// shift) or "loss" (Bernoulli drop rate).
	Channel string `json:"channel"`
	// Magnitude is the attack size: the mean shift in σ units for
	// delay, the absolute drop fraction for loss.
	Magnitude float64 `json:"magnitude"`
	// PerEpochN is the evidence items one epoch contributes.
	PerEpochN int `json:"per_epoch_n"`
	// Trials is the number of independent seeded streams.
	Trials int `json:"trials"`
	// SeqDetectFrac / BatchDetectFrac are the fractions of trials each
	// arm detected within the horizon.
	SeqDetectFrac   float64 `json:"seq_detect_frac"`
	BatchDetectFrac float64 `json:"batch_detect_frac"`
	// SeqEpochs / BatchEpochs are the mean epochs-to-verdict over the
	// trials that detected (fractional for the sequential arm, whole
	// epochs for batch; 0 when no trial detected).
	SeqEpochs   float64 `json:"seq_epochs_to_verdict"`
	BatchEpochs float64 `json:"batch_epochs_to_verdict"`
	// MinDetectableSigma is the analytic one-epoch detectability floor
	// for the configured operating point at this n.
	MinDetectableSigma float64 `json:"min_detectable_magnitude_sigma"`
}

// seqFrontierHorizon bounds each trial; a magnitude whose expected
// crossing exceeds it reports a sub-1.0 detect fraction instead of
// running forever.
const seqFrontierHorizon = 40

// zAlpha999 is Φ⁻¹(1 − 1e-3): the one-sided normal quantile matching
// the default α the batch comparator spends afresh every epoch.
const zAlpha999 = 3.0902

// delayMagnitudes spans sub-floor shifts (the batch test cannot see
// them in one epoch) up to the blatant shaves the matrix mounts.
var delayMagnitudes = []float64{0.05, 0.1, 0.2, 0.3, 0.5, 1, 2, 5, 10, 40}

// lossMagnitudes spans drop rates from the honest design point p0 up
// to the matrix's 30% suppressor.
var lossMagnitudes = []float64{0.015, 0.02, 0.03, 0.05, 0.08, 0.12, 0.2, 0.3}

// SeqFrontier sweeps both channels at the matrix's per-epoch evidence
// budget.
func SeqFrontier(cfg Config) ([]SeqFrontierRow, error) {
	cfg = cfg.Normalize()
	intervalNS := cfg.DurationNS / matrixEpochs
	if intervalNS < 1 {
		intervalNS = cfg.DurationNS
	}
	// One matrix link's per-epoch evidence: the sampled packets of one
	// rotation interval.
	n := int(cfg.RatePPS * float64(intervalNS) / 1e9 * matrixSampleRate)
	if n < 8 {
		n = 8
	}
	const trials = 32
	sq := matrixSeqConfig()
	var rows []SeqFrontierRow
	for _, mag := range delayMagnitudes {
		rows = append(rows, sweepDelay(sq, mag, n, trials, cfg.Seed))
	}
	for _, mag := range lossMagnitudes {
		rows = append(rows, sweepLoss(sq, mag, n, trials, cfg.Seed))
	}
	return rows, nil
}

// frontierTally accumulates one magnitude's trial outcomes.
type frontierTally struct {
	seqDet, batchDet int
	seqSum, batchSum float64
}

func (ta *frontierTally) row(channel string, mag float64, n, trials int, sq seqdetect.Config) SeqFrontierRow {
	r := SeqFrontierRow{
		Channel:            channel,
		Magnitude:          mag,
		PerEpochN:          n,
		Trials:             trials,
		SeqDetectFrac:      float64(ta.seqDet) / float64(trials),
		BatchDetectFrac:    float64(ta.batchDet) / float64(trials),
		MinDetectableSigma: seqdetect.MinDetectableShiftSigma(sq.Alpha, sq.Beta, n),
	}
	if ta.seqDet > 0 {
		r.SeqEpochs = ta.seqSum / float64(ta.seqDet)
	}
	if ta.batchDet > 0 {
		r.BatchEpochs = ta.batchSum / float64(ta.batchDet)
	}
	return r
}

// sweepDelay runs one delay-shift magnitude: the sequential engine
// consumes the same per-epoch sample stream a per-epoch batch mean
// test judges and forgets.
func sweepDelay(sq seqdetect.Config, mag float64, n, trials int, seed uint64) SeqFrontierRow {
	var ta frontierTally
	scope := seqdetect.Scope{Key: "frontier"}
	for tr := 0; tr < trials; tr++ {
		rng := stats.NewRNG(seed ^ (0xd31a<<16 + uint64(tr)*0x9e3779b97f4a7c15 + uint64(mag*1e6)))
		eng := seqdetect.NewEngine(sq)
		feed := eng.NewFeeder()
		det := feed.Detector(scope, seqdetect.ClassDelay, 0)
		seqEp, batchEp := -1.0, -1
		for ep := 0; ep < seqFrontierHorizon && (seqEp < 0 || batchEp < 0); ep++ {
			items := make([]seqdetect.Evidence, n)
			var sum float64
			for i := range items {
				v := sq.DelayRefNS + (mag+rng.NormFloat64())*sq.DelaySigmaNS
				items[i] = seqdetect.Evidence{Kind: seqdetect.KindDelta, Value: v}
				sum += v
			}
			feed.Observe(det, items)
			for _, v := range eng.EndEpoch(uint64(ep)) {
				if seqEp < 0 {
					seqEp = v.EpochsToVerdict()
				}
			}
			// The batch comparator: a fresh one-epoch mean test at the
			// same α, no memory across seals.
			if batchEp < 0 {
				mean := sum / float64(n)
				if mean > sq.DelayRefNS+zAlpha999*sq.DelaySigmaNS/math.Sqrt(float64(n)) {
					batchEp = ep + 1
				}
			}
		}
		if seqEp >= 0 {
			ta.seqDet++
			ta.seqSum += seqEp
		}
		if batchEp > 0 {
			ta.batchDet++
			ta.batchSum += float64(batchEp)
		}
	}
	return ta.row("delay", mag, n, trials, sq)
}

// sweepLoss runs one drop-rate magnitude: Bernoulli keep/drop trials
// against a per-epoch binomial tail test at the same α (normal
// approximation around the honest design point p0).
func sweepLoss(sq seqdetect.Config, mag float64, n, trials int, seed uint64) SeqFrontierRow {
	var ta frontierTally
	scope := seqdetect.Scope{Key: "frontier"}
	for tr := 0; tr < trials; tr++ {
		rng := stats.NewRNG(seed ^ (0x10ff<<16 + uint64(tr)*0x9e3779b97f4a7c15 + uint64(mag*1e6)))
		eng := seqdetect.NewEngine(sq)
		feed := eng.NewFeeder()
		det := feed.Detector(scope, seqdetect.ClassLoss, 0)
		seqEp, batchEp := -1.0, -1
		batchBound := float64(n)*sq.LossP0 + zAlpha999*math.Sqrt(float64(n)*sq.LossP0*(1-sq.LossP0))
		for ep := 0; ep < seqFrontierHorizon && (seqEp < 0 || batchEp < 0); ep++ {
			items := make([]seqdetect.Evidence, n)
			drops := 0
			for i := range items {
				if rng.Bool(mag) {
					items[i] = seqdetect.Evidence{Kind: seqdetect.KindDrop}
					drops++
				} else {
					items[i] = seqdetect.Evidence{Kind: seqdetect.KindKeep}
				}
			}
			feed.Observe(det, items)
			for _, v := range eng.EndEpoch(uint64(ep)) {
				if seqEp < 0 {
					seqEp = v.EpochsToVerdict()
				}
			}
			if batchEp < 0 && float64(drops) > batchBound {
				batchEp = ep + 1
			}
		}
		if seqEp >= 0 {
			ta.seqDet++
			ta.seqSum += seqEp
		}
		if batchEp > 0 {
			ta.batchDet++
			ta.batchSum += float64(batchEp)
		}
	}
	return ta.row("loss", mag, n, trials, sq)
}
