package experiments

import (
	"fmt"
	"time"

	"vpm/internal/core"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/quantile"
	"vpm/internal/trace"
)

// Verification-pipeline scenario constants: a 16-HOP path (9 domains:
// stubs S and D plus transits T1..T7) carrying 64 origin-prefix paths,
// sampled densely enough that every link check matches a meaningful
// sample population.
const (
	// VerifyDomains is the number of domains on the verify scenario's
	// path (9 domains = 16 HOPs).
	VerifyDomains = 9
	// VerifyPathKeys is the number of origin-prefix paths multiplexed
	// on the scenario.
	VerifyPathKeys = 64
	// VerifySampleRate is every domain's σ in the scenario — denser
	// than the 1% default so per-path link checks see real sample
	// populations at benchmark durations.
	VerifySampleRate = 0.05
	// VerifyAggRate gives each path a handful of aggregates per run.
	VerifyAggRate = 0.0005
)

// VerifyRow is one line of the verification-pipeline throughput
// experiment. Mode "rebuild" is the pre-store shape: every path key
// re-scans the deployment's receipts into a private verifier. Mode
// "indexed" ingests receipts once into the shared indexed store, then
// runs every per-key verification sweep (VerifyAllLinks +
// DomainReports) over it. The JSON
// tags are the schema cmd/vpm-bench -run verify -json emits for
// BENCH_*.json tracking.
type VerifyRow struct {
	Mode             string  `json:"mode"`
	HOPs             int     `json:"hops"`
	PathKeys         int     `json:"path_keys"`
	LinkChecks       int     `json:"link_checks"`
	MatchedSamples   int64   `json:"matched_samples"`
	WallMS           float64 `json:"wall_ms"`
	LinkChecksPerSec float64 `json:"link_checks_per_sec"`
	SpeedupVsRebuild float64 `json:"speedup_vs_rebuild"`
}

// VerifyScenario builds and runs the verification workload: the
// 16-HOP path, VerifyPathKeys concurrent origin-prefix paths sharing
// cfg.RatePPS, and a full deployment with dense sampling. It returns
// the finalized deployment and the traffic keys in trace order.
func VerifyScenario(cfg Config) (*core.Deployment, []packet.PathKey, error) {
	cfg = cfg.Normalize()
	tc := VerifyTraceConfig(cfg)
	pkts, err := trace.Generate(tc)
	if err != nil {
		return nil, nil, err
	}
	path := netsim.LinearPath(cfg.Seed+2000, VerifyDomains)
	dc := core.DefaultDeployConfig()
	dc.Default.SampleRate = VerifySampleRate
	dc.Default.AggRate = VerifyAggRate
	dep, err := core.NewDeployment(path, tc.Table(), dc)
	if err != nil {
		return nil, nil, err
	}
	if _, err := path.Run(pkts, dep.Observers()); err != nil {
		return nil, nil, err
	}
	dep.Finalize()
	keys := make([]packet.PathKey, len(tc.Paths))
	for i, p := range tc.Paths {
		keys[i] = packet.PathKey{Src: p.SrcPrefix, Dst: p.DstPrefix}
	}
	return dep, keys, nil
}

// VerifyTraceConfig returns the 64-path trace configuration of the
// verify scenario: cfg.RatePPS split evenly across VerifyPathKeys
// distinct /16 origin-prefix pairs.
func VerifyTraceConfig(cfg Config) trace.Config {
	cfg = cfg.Normalize()
	paths := make([]trace.PathSpec, VerifyPathKeys)
	for i := range paths {
		p := trace.DefaultPath(cfg.RatePPS / VerifyPathKeys)
		p.SrcPrefix = packet.MakePrefix(10, byte(i), 0, 0, 16)
		p.DstPrefix = packet.MakePrefix(192, byte(i), 0, 0, 16)
		paths[i] = p
	}
	return trace.Config{Seed: cfg.Seed + 70, DurationNS: cfg.DurationNS, Paths: paths}
}

// verifySweep runs the full verification of one path key — every link
// verdict plus every domain report — and returns the matched-sample
// total as a cheap cross-mode consistency signal.
func verifySweep(v *core.Verifier, confidence float64) (int64, error) {
	var matched int64
	for _, lv := range v.VerifyAllLinks() {
		matched += int64(lv.MatchedSamples)
	}
	if _, err := v.DomainReports(quantile.DefaultQuantiles, confidence); err != nil {
		return matched, err
	}
	return matched, nil
}

// Verify measures the verification pipeline on the 16-HOP × 64-path
// scenario: the per-key rebuild baseline, then the shared indexed
// store.
func Verify(cfg Config) ([]VerifyRow, error) {
	cfg = cfg.Normalize()
	dep, keys, err := VerifyScenario(cfg)
	if err != nil {
		return nil, err
	}
	linksPerKey := len(dep.Layout().Links())
	mkRow := func(mode string, matched int64, d time.Duration) VerifyRow {
		checks := linksPerKey * len(keys)
		return VerifyRow{
			Mode:             mode,
			HOPs:             dep.Path.NumHOPs(),
			PathKeys:         len(keys),
			LinkChecks:       checks,
			MatchedSamples:   matched,
			WallMS:           float64(d.Nanoseconds()) / 1e6,
			LinkChecksPerSec: float64(checks) / d.Seconds(),
		}
	}

	var rows []VerifyRow

	// Baseline: the pre-store shape — each key rebuilds its own
	// verifier, re-scanning every processor's receipts, then verifies.
	start := time.Now()
	var matched int64
	for _, key := range keys {
		m, err := verifySweep(dep.NewVerifier(key), cfg.Confidence)
		if err != nil {
			return nil, err
		}
		matched += m
	}
	rows = append(rows, mkRow("rebuild", matched, time.Since(start)))

	// Indexed: ingest once into the shared store (charged to the row),
	// then sweep every key.
	start = time.Now()
	store := dep.NewStore()
	matched = 0
	for _, key := range keys {
		m, err := verifySweep(dep.NewVerifierOn(store, key), cfg.Confidence)
		if err != nil {
			return nil, err
		}
		matched += m
	}
	rows = append(rows, mkRow("indexed", matched, time.Since(start)))

	base := rows[0].WallMS
	for i := range rows {
		if rows[i].WallMS > 0 {
			rows[i].SpeedupVsRebuild = base / rows[i].WallMS
		}
	}
	return rows, nil
}

// VerifyRender renders the rows.
func VerifyRender(rows []VerifyRow, markdown bool) string {
	header := []string{"Mode", "LinkChecks", "Matched", "ms", "checks/s", "x-rebuild"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			r.Mode,
			fmt.Sprintf("%d", r.LinkChecks),
			fmt.Sprintf("%d", r.MatchedSamples),
			fmt.Sprintf("%.1f", r.WallMS),
			fmt.Sprintf("%.0f", r.LinkChecksPerSec),
			fmt.Sprintf("%.2f", r.SpeedupVsRebuild),
		})
	}
	if markdown {
		return Markdown(header, body)
	}
	return Table(header, body)
}
