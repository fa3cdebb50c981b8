package experiments

import (
	"fmt"

	"vpm/internal/quantile"
)

// Fig2Row is one cell of the paper's Figure 2: the accuracy with which
// domain X's delay performance is estimated from its receipts, for a
// sampling rate and an intra-X loss level.
type Fig2Row struct {
	SampleRatePct float64
	LossPct       float64
	// AccuracyMS is the worst error across the median and 90th
	// percentile between the receipt-based estimate and ground
	// truth, in milliseconds (the paper's "Delay Accuracy [msec]").
	AccuracyMS float64
	// MatchedSamples is the estimate's sample population.
	MatchedSamples int
}

// Fig2SampleRatesPct are the paper's x-axis points.
var Fig2SampleRatesPct = []float64{5, 1, 0.5, 0.1}

// Fig2LossPcts are the paper's curves.
var Fig2LossPcts = []float64{0, 10, 25, 50}

// Fig2Quantiles are the quantiles whose worst-case estimation error
// defines the figure's accuracy metric (the SLA-relevant median and
// 90th percentile; the paper's example SLA statement is about the
// 90th).
var Fig2Quantiles = []float64{0.5, 0.9}

// Fig2 reproduces Figure 2: X is congested by a bursty high-rate UDP
// flow; its delay accuracy is measured as a function of its sampling
// rate for several loss levels. Each cell averages a few independent
// runs (different trace, congestion and loss seeds), as a single
// hash-sampled run is noisy at the lowest rates.
func Fig2(cfg Config) ([]Fig2Row, error) {
	cfg = cfg.Normalize()
	const reps = 3
	var rows []Fig2Row
	for _, loss := range Fig2LossPcts {
		for _, ratePct := range Fig2SampleRatesPct {
			row := Fig2Row{SampleRatePct: ratePct, LossPct: loss}
			var accSum float64
			measured := 0
			for rep := 0; rep < reps; rep++ {
				w, err := buildWorld(cfg, worldOpt{
					congestX:   true,
					lossX:      loss / 100,
					sampleRate: ratePct / 100,
					seedBump:   uint64(loss*1000+ratePct*10) + uint64(rep)*99991,
				})
				if err != nil {
					return nil, err
				}
				v := w.dep.NewVerifier(w.key)
				truth, _ := w.truth.DomainByName("X")
				delays := v.DelaysBetween(4, 5)
				row.MatchedSamples += len(delays)
				if len(delays) == 0 {
					continue
				}
				acc, err := quantile.AccuracyNS(delays, truth.TrueDelaysNS, Fig2Quantiles)
				if err != nil {
					return nil, err
				}
				accSum += acc
				measured++
			}
			if measured == 0 {
				row.AccuracyMS = -1 // unmeasurable
			} else {
				row.AccuracyMS = accSum / float64(measured) / 1e6
				row.MatchedSamples /= reps
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig2Render renders the rows like the paper's figure: one column per
// sampling rate, one row per loss level.
func Fig2Render(rows []Fig2Row) string {
	header := []string{"Loss \\ Sampling"}
	for _, r := range Fig2SampleRatesPct {
		header = append(header, fmt.Sprintf("%g%%", r))
	}
	cell := make(map[[2]float64]Fig2Row, len(rows))
	for _, r := range rows {
		cell[[2]float64{r.LossPct, r.SampleRatePct}] = r
	}
	var body [][]string
	for _, loss := range Fig2LossPcts {
		line := []string{fmt.Sprintf("%g%% loss", loss)}
		for _, rate := range Fig2SampleRatesPct {
			r := cell[[2]float64{loss, rate}]
			line = append(line, fmt.Sprintf("%.3f ms (n=%d)", r.AccuracyMS, r.MatchedSamples))
		}
		body = append(body, line)
	}
	return Markdown(header, body)
}
