package experiments

import (
	"fmt"
)

// Fig3Row is one point of the paper's Figure 3: the granularity at
// which domain X's loss performance can be computed, as a function of
// the loss rate X introduces.
type Fig3Row struct {
	LossPct float64
	// GranularitySec is the average span of one computable (joined)
	// aggregate, in seconds of traffic.
	GranularitySec float64
	// BaselineSec is the no-loss granularity implied by the
	// aggregation rate (the paper's 1 s for 100k-packet aggregates at
	// 100k pkt/s).
	BaselineSec float64
	// Pairs is the number of joined aggregates the verifier could
	// compare.
	Pairs int
	// MeasuredLossPct is the loss the verifier computed — it should
	// track the x-axis (the measurement stays correct even as
	// granularity degrades).
	MeasuredLossPct float64
}

// Fig3LossPcts are the figure's x-axis points.
var Fig3LossPcts = []float64{0, 5, 10, 15, 20, 25, 30, 40, 50}

// Fig3 reproduces Figure 3: X produces one aggregate per
// (RatePPS * BaselineSec) packets; the verifier joins X's ingress and
// egress aggregate receipts and reports the average computable
// granularity. Loss of cutting points merges aggregates, coarsening
// the join smoothly (§6.3).
//
// The paper uses 100k-packet aggregates over a long trace; to keep
// single-process runs tractable the aggregate span defaults to a tenth
// of the trace so every point joins ~10 aggregates, and granularity is
// reported in absolute seconds alongside the no-loss baseline.
func Fig3(cfg Config) ([]Fig3Row, error) {
	cfg = cfg.Normalize()
	// One aggregate per ~20th of the trace, averaged over a few
	// repetitions: the survival of individual hash-selected cutting
	// points is noisy at small aggregate counts.
	const reps = 5
	aggPkts := cfg.RatePPS * float64(cfg.DurationNS) / 1e9 / 20
	if aggPkts < 100 {
		aggPkts = 100
	}
	aggRate := 1 / aggPkts
	baseline := aggPkts / cfg.RatePPS
	var rows []Fig3Row
	for _, loss := range Fig3LossPcts {
		row := Fig3Row{LossPct: loss, BaselineSec: baseline}
		var totalIn, totalLost int64
		for rep := 0; rep < reps; rep++ {
			w, err := buildWorld(cfg, worldOpt{
				lossX:    loss / 100,
				aggRate:  aggRate,
				seedBump: uint64(loss*100) + uint64(rep)*77777,
			})
			if err != nil {
				return nil, err
			}
			v := w.dep.NewVerifier(w.key)
			lrep, err := v.LossBetween(4, 5)
			if err != nil {
				return nil, err
			}
			row.Pairs += len(lrep.Pairs)
			totalIn += lrep.In
			totalLost += lrep.Lost
		}
		if row.Pairs > 0 {
			// Average packets per joined aggregate over the sending
			// rate gives seconds of traffic per computable point.
			row.GranularitySec = float64(totalIn) / float64(row.Pairs) / cfg.RatePPS
			row.MeasuredLossPct = float64(totalLost) / float64(totalIn) * 100
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig3Render renders the figure's series.
func Fig3Render(rows []Fig3Row) string {
	header := []string{"Loss Rate", "Loss Granularity [sec]", "vs no-loss", "Joined Aggs", "Measured Loss"}
	var body [][]string
	for _, r := range rows {
		ratio := 0.0
		if r.BaselineSec > 0 {
			ratio = r.GranularitySec / r.BaselineSec
		}
		body = append(body, []string{
			fmt.Sprintf("%g%%", r.LossPct),
			fmt.Sprintf("%.2f", r.GranularitySec),
			fmt.Sprintf("%.2fx", ratio),
			fmt.Sprintf("%d", r.Pairs),
			fmt.Sprintf("%.1f%%", r.MeasuredLossPct),
		})
	}
	return Markdown(header, body)
}
