// Package experiments reproduces every table and figure of the paper's
// evaluation (§7) plus the attack ablations its design sections argue
// (§3, §5.3). Each experiment is a pure function of a Config and
// returns typed rows; the paper's tables also render as Markdown. The
// root package's TestPaperResults rebuilds docs/PAPER-TABLES.md and the
// BENCH_*.json verdict documents from these rows and compares them
// byte for byte with the checked-in files; the repo-root benchmarks
// time them. See docs/PAPER-MAP.md's Evaluation index.
package experiments

import (
	"strings"

	"vpm/internal/core"
	"vpm/internal/delaymodel"
	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// Config scales the experiments. The zero value is upgraded to the
// paper's settings by Normalize; benchmarks shrink Duration for speed.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// RatePPS is the foreground path's packet rate; the paper's
	// packet sequences run at 100k packets per second.
	RatePPS float64
	// DurationNS is the trace length (default 1 s).
	DurationNS int64
	// Confidence for quantile estimates (default 0.95).
	Confidence float64
}

// Normalize fills defaults in place and returns the config.
func (c Config) Normalize() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RatePPS == 0 {
		c.RatePPS = 100000
	}
	if c.DurationNS == 0 {
		c.DurationNS = int64(1e9)
	}
	if c.Confidence == 0 {
		c.Confidence = 0.95
	}
	return c
}

// world bundles everything one simulated run produces.
type world struct {
	cfg   Config
	pkts  []packet.Packet
	path  *netsim.Path
	dep   *core.Deployment
	key   packet.PathKey
	truth *netsim.Result
}

// worldOpt perturbs the Figure 1 scenario.
type worldOpt struct {
	// lossX is the Gilbert-Elliott loss rate inside domain X.
	lossX float64
	// congestX attaches the bursty-UDP bottleneck to X.
	congestX bool
	// deploy overrides the deployment config (nil: default with
	// sampleRate/aggRate applied to every domain).
	deploy *core.DeployConfig
	// sampleRate and aggRate set every domain's tuning when deploy is
	// nil (zero keeps the defaults).
	sampleRate, aggRate float64
	// seedBump decorrelates repeated runs.
	seedBump uint64
}

// buildWorld generates the trace, the (possibly perturbed) Figure 1
// path, and a full deployment, then runs the simulation.
func buildWorld(cfg Config, opt worldOpt) (*world, error) {
	tc := trace.Config{
		Seed:       cfg.Seed + opt.seedBump,
		DurationNS: cfg.DurationNS,
		Paths:      []trace.PathSpec{trace.DefaultPath(cfg.RatePPS)},
	}
	pkts, err := trace.Generate(tc)
	if err != nil {
		return nil, err
	}
	path := netsim.Fig1Path(cfg.Seed + opt.seedBump + 1000)
	xi := path.DomainIndex("X")
	if opt.congestX {
		q, err := delaymodel.New(delaymodel.BurstyUDPScenario(cfg.Seed + opt.seedBump + 7))
		if err != nil {
			return nil, err
		}
		path.Domains[xi].Delay = q
	}
	if opt.lossX > 0 {
		ge, err := lossmodel.FromTargetLoss(opt.lossX, 8, stats.NewRNG(cfg.Seed+opt.seedBump+13))
		if err != nil {
			return nil, err
		}
		path.Domains[xi].Loss = ge
	}
	dc := core.DefaultDeployConfig()
	if opt.deploy != nil {
		dc = *opt.deploy
	} else {
		if opt.sampleRate > 0 {
			dc.Default.SampleRate = opt.sampleRate
		}
		if opt.aggRate > 0 {
			dc.Default.AggRate = opt.aggRate
		}
	}
	dep, err := core.NewDeployment(path, tc.Table(), dc)
	if err != nil {
		return nil, err
	}
	res, err := path.Run(pkts, dep.Observers())
	if err != nil {
		return nil, err
	}
	dep.Finalize()
	return &world{
		cfg:   cfg,
		pkts:  pkts,
		path:  path,
		dep:   dep,
		key:   packet.PathKey{Src: tc.Paths[0].SrcPrefix, Dst: tc.Paths[0].DstPrefix},
		truth: res,
	}, nil
}

// Markdown renders rows of cells as a Markdown table.
func Markdown(header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString("| " + strings.Join(header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(header)) + "\n")
	for _, r := range rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	return b.String()
}
