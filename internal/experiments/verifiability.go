package experiments

import (
	"fmt"

	"vpm/internal/core"
	"vpm/internal/quantile"
)

// VerifiabilityRow is one line of the §7.2 verifiability analysis: how
// accurately a third party (domain L) can *verify* congested domain
// X's delay performance, given the sampling rate of X's downstream
// neighbor N. Verification uses only the samples N also reported —
// the subset property makes that exactly N's sample set.
type VerifiabilityRow struct {
	XRatePct, NRatePct float64
	LossPct            float64
	// EstimateMS is X's self-estimated accuracy (from X's own
	// receipts); VerifyMS is the accuracy achievable using only the
	// samples N corroborates.
	EstimateMS, VerifyMS float64
	// EstimateN / VerifyN are the sample populations.
	EstimateN, VerifyN int
}

// Verifiability reproduces the §7.2 numbers: X samples 1% and loses
// 25% of its traffic; its delay estimate is ~2 ms accurate. If N also
// samples 1%, L verifies at the same accuracy; if N samples 0.1%, L
// verifies at ~5 ms.
func Verifiability(cfg Config) ([]VerifiabilityRow, error) {
	cfg = cfg.Normalize()
	const reps = 3
	var rows []VerifiabilityRow
	for _, nRate := range []float64{1, 0.1} {
		row := VerifiabilityRow{XRatePct: 1, NRatePct: nRate, LossPct: 25}
		var estSum, verSum float64
		estRuns, verRuns := 0, 0
		for rep := 0; rep < reps; rep++ {
			dc := core.DefaultDeployConfig()
			dc.PerDomain = map[string]core.Tuning{
				"N": {SampleRate: nRate / 100, AggRate: dc.Default.AggRate},
			}
			w, err := buildWorld(cfg, worldOpt{
				congestX: true,
				lossX:    0.25,
				deploy:   &dc,
				seedBump: uint64(nRate*31) + uint64(rep)*88883,
			})
			if err != nil {
				return nil, err
			}
			v := w.dep.NewVerifier(w.key)
			truth, _ := w.truth.DomainByName("X")

			xDelays := v.DelaysBetween(4, 5)
			row.EstimateN += len(xDelays)
			if len(xDelays) > 0 {
				acc, err := quantile.AccuracyNS(xDelays, truth.TrueDelaysNS, Fig2Quantiles)
				if err != nil {
					return nil, err
				}
				estSum += acc
				estRuns++
			}
			// Verification: restrict X's claimed delays to the
			// packets N corroborates (sampled at HOP 6).
			verifiable := v.CorroboratedDelays(4, 5, 6)
			row.VerifyN += len(verifiable)
			if len(verifiable) > 0 {
				acc, err := quantile.AccuracyNS(verifiable, truth.TrueDelaysNS, Fig2Quantiles)
				if err != nil {
					return nil, err
				}
				verSum += acc
				verRuns++
			}
		}
		if estRuns > 0 {
			row.EstimateMS = estSum / float64(estRuns) / 1e6
			row.EstimateN /= reps
		}
		if verRuns > 0 {
			row.VerifyMS = verSum / float64(verRuns) / 1e6
			row.VerifyN /= reps
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// VerifiabilityRender renders the rows.
func VerifiabilityRender(rows []VerifiabilityRow) string {
	header := []string{"X rate", "N rate", "X loss", "X self-estimate", "verifiable accuracy"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			fmt.Sprintf("%g%%", r.XRatePct),
			fmt.Sprintf("%g%%", r.NRatePct),
			fmt.Sprintf("%g%%", r.LossPct),
			fmt.Sprintf("%.3f ms (n=%d)", r.EstimateMS, r.EstimateN),
			fmt.Sprintf("%.3f ms (n=%d)", r.VerifyMS, r.VerifyN),
		})
	}
	return Markdown(header, body)
}
