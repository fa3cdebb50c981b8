// Command vpm-bench regenerates the paper's evaluation: every table
// and figure (docs/PAPER-MAP.md's per-experiment index), the adversary
// and topology verdict matrices that gate CI, and the key-churn heap
// check — printed as aligned text, Markdown or (where a gate reads it)
// JSON. It is not a stopwatch: throughput, latency and heap numbers
// come from the end-to-end benchmark, `go run ./bench`
// (BENCHMARK.json), and nowhere else.
//
// Usage:
//
//	vpm-bench [-run all|EXPERIMENT] [-duration 1s] [-rate 100000]
//	          [-seed 1] [-markdown] [-json] [-o out.md]
//	          [-epochs 8] [-churn-keys 1048576]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// vpm-bench -h lists the experiments and which of them support -json
// (the runs table below is the one copy of that list). The defaults
// reproduce the paper's scale (100k packets/second for one second per
// experiment point); use a smaller -duration for a quick pass.
// -cpuprofile/-memprofile write pprof profiles of whichever experiment
// runs.
//
// The checked-in verdict documents are regenerated with
//
//	vpm-bench -run attacks -json -o BENCH_4.json
//	vpm-bench -run topo -json -o BENCH_5.json
//	vpm-bench -run seqdetect -json -o BENCH_8.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"vpm/internal/experiments"
)

// options is what an experiment reads of the command line.
type options struct {
	cfg       experiments.Config
	markdown  bool
	json      bool
	waves     int // -epochs
	churnKeys int
}

// runs is the one list of experiments, in "all" order: it drives -run
// validation, the -run and -json help text, the unknown-experiment
// error and the dispatch.
var runs = []struct {
	name  string
	inAll bool // part of -run all
	json  bool // supports -json
	fn    func(w io.Writer, o options) error
}{
	{"table1", true, false, runTable1},
	{"fig2", true, false, runFig2},
	{"fig3", true, false, runFig3},
	{"memory", true, false, runMemory},
	{"bandwidth", true, false, runBandwidth},
	{"click", true, false, runClick},
	{"verif", true, false, runVerif},
	{"attacks", true, true, runAttacks},
	{"topo", true, true, runTopo},
	{"churn", false, true, runChurn}, // too heavy for "all": cycles -churn-keys distinct paths
	{"seqdetect", true, true, runSeqdetect},
}

// runNames lists "all" and every experiment (jsonOnly: only those
// supporting -json, without "all") for help and error text.
func runNames(jsonOnly bool) string {
	var names []string
	if !jsonOnly {
		names = append(names, "all")
	}
	for _, r := range runs {
		if r.json || !jsonOnly {
			names = append(names, r.name)
		}
	}
	return strings.Join(names, ", ")
}

func main() {
	var (
		run        = flag.String("run", "all", "experiment to run: "+runNames(false))
		duration   = flag.Duration("duration", time.Second, "trace duration per experiment point")
		rate       = flag.Float64("rate", 100000, "foreground path packet rate (packets/second)")
		seed       = flag.Uint64("seed", 1, "experiment seed")
		markdown   = flag.Bool("markdown", false, "emit Markdown tables")
		jsonOut    = flag.Bool("json", false, "emit machine-readable JSON (-run "+runNames(true)+")")
		epochs     = flag.Int("epochs", 8, "key waves for -run churn")
		churnKeys  = flag.Int("churn-keys", 1<<20, "distinct traffic keys to cycle through for -run churn")
		out        = flag.String("o", "", "write output to file instead of stdout")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (taken after the experiments finish) to this file")
	)
	flag.Parse()

	// Validate before any output file is created: a mistyped -run must
	// not truncate what -o names.
	known, jsonOK := *run == "all", false
	for _, r := range runs {
		if r.name == *run {
			known, jsonOK = true, r.json
		}
	}
	if !known {
		fatal(fmt.Errorf("unknown experiment %q (want one of %s)", *run, runNames(false)))
	}
	if *jsonOut && !jsonOK {
		fatal(fmt.Errorf("-json is only supported with -run %s", runNames(true)))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "vpm-bench:", err)
			}
			f.Close()
		}()
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	o := options{
		cfg: experiments.Config{
			Seed:       *seed,
			RatePPS:    *rate,
			DurationNS: duration.Nanoseconds(),
		},
		markdown:  *markdown,
		json:      *jsonOut,
		waves:     *epochs,
		churnKeys: *churnKeys,
	}
	for _, r := range runs {
		if r.name == *run || (*run == "all" && r.inAll) {
			if err := r.fn(w, o); err != nil {
				fatal(err)
			}
		}
	}
}

func section(w io.Writer, o options, title string) {
	if o.markdown {
		fmt.Fprintf(w, "\n## %s\n\n", title)
	} else {
		fmt.Fprintf(w, "\n=== %s ===\n\n", title)
	}
}

func writeJSON(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func runTable1(w io.Writer, o options) error {
	section(w, o, "Table 1 — partitions, coarser-than, joins")
	fmt.Fprint(w, experiments.Table1Render(experiments.Table1(), o.markdown))
	return nil
}

func runFig2(w io.Writer, o options) error {
	section(w, o, "Figure 2 — delay accuracy [ms] vs sampling rate, per loss level")
	rows, err := experiments.Fig2(o.cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(w, experiments.Fig2Render(rows, o.markdown))
	return nil
}

func runFig3(w io.Writer, o options) error {
	section(w, o, "Figure 3 — loss granularity [sec] vs loss rate")
	rows, err := experiments.Fig3(o.cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(w, experiments.Fig3Render(rows, o.markdown))
	return nil
}

func runMemory(w io.Writer, o options) error {
	section(w, o, "§7.1 — memory overhead (paper arithmetic vs this implementation)")
	fmt.Fprint(w, experiments.MemoryRender(experiments.MemoryOverhead(), o.markdown))
	return nil
}

func runBandwidth(w io.Writer, o options) error {
	section(w, o, "§7.1 — receipt bandwidth overhead")
	rows, err := experiments.BandwidthOverhead(o.cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(w, experiments.BandwidthRender(rows, o.markdown))
	return nil
}

func runClick(w io.Writer, o options) error {
	section(w, o, "§7.1 — forwarding throughput with and without the VPM collector")
	rows, err := experiments.Click(o.cfg, 2_000_000)
	if err != nil {
		return err
	}
	fmt.Fprint(w, experiments.ClickRender(rows, o.markdown))
	return nil
}

func runVerif(w io.Writer, o options) error {
	section(w, o, "§7.2 — verifiability vs the witness's sampling rate")
	rows, err := experiments.Verifiability(o.cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(w, experiments.VerifiabilityRender(rows, o.markdown))
	return nil
}

// runAttacks: with -json, the scenario-coverage document (BENCH_4.json
// and onward) — every adversary × mode with its verdict and blame, plus
// the cross-protocol ablation for context.
func runAttacks(w io.Writer, o options) error {
	matrix, err := experiments.AttackMatrix(o.cfg)
	if err != nil {
		return err
	}
	ablation, err := experiments.Attacks(o.cfg)
	if err != nil {
		return err
	}
	if o.json {
		return writeJSON(w, struct {
			Experiment string                  `json:"experiment"`
			Seed       uint64                  `json:"seed"`
			RatePPS    float64                 `json:"rate_pps"`
			DurationNS int64                   `json:"duration_ns"`
			Rows       []experiments.MatrixRow `json:"rows"`
			Ablation   []experiments.AttackRow `json:"ablation"`
		}{"attacks", o.cfg.Seed, o.cfg.RatePPS, o.cfg.DurationNS, matrix, ablation})
	}
	section(w, o, "§3/§5 — protocol × adversary ablation")
	fmt.Fprint(w, experiments.AttacksRender(ablation, o.markdown))
	section(w, o, "Byzantine HOP matrix — adversary × pipeline mode")
	fmt.Fprint(w, experiments.MatrixRender(matrix, o.markdown))
	return nil
}

// runTopo sweeps the mesh topology families (star, tree, Clos-like ECMP
// fabric, random AS graph): honest and faulty-shared-link scenarios per
// family, shared-link blame localization and a verdict fingerprint per
// row.
func runTopo(w io.Writer, o options) error {
	rows, err := experiments.Topo(o.cfg)
	if err != nil {
		return err
	}
	if o.json {
		return writeJSON(w, struct {
			Experiment string                `json:"experiment"`
			Seed       uint64                `json:"seed"`
			RatePPS    float64               `json:"rate_pps"`
			DurationNS int64                 `json:"duration_ns"`
			Rows       []experiments.TopoRow `json:"rows"`
		}{"topo", o.cfg.Seed, o.cfg.RatePPS, o.cfg.DurationNS, rows})
	}
	section(w, o, "Mesh & multipath — topology families, shared-link blame")
	fmt.Fprint(w, experiments.TopoRender(rows, o.markdown))
	return nil
}

// runChurn cycles -churn-keys distinct traffic keys through the
// collector in -epochs disjoint waves with idle-path eviction on and
// reports whether the live heap stays flat.
func runChurn(w io.Writer, o options) error {
	row, err := experiments.Churn(o.churnKeys, o.waves, 4)
	if err != nil {
		return err
	}
	if o.json {
		return writeJSON(w, struct {
			Experiment string               `json:"experiment"`
			Seed       uint64               `json:"seed"`
			Row        experiments.ChurnRow `json:"row"`
		}{"churn", o.cfg.Seed, row})
	}
	section(w, o, "Key churn — monitoring-cache eviction under path turnover")
	fmt.Fprint(w, experiments.ChurnRender(row, o.markdown))
	return nil
}

// runSeqdetect is the sequential-detection frontier: latency-vs-
// magnitude curves (SPRT vs a memoryless per-epoch batch test) plus the
// adversary matrix rows carrying the batch/sequential epochs-to-verdict
// columns the CI gate checks.
func runSeqdetect(w io.Writer, o options) error {
	frontier, err := experiments.SeqFrontier(o.cfg)
	if err != nil {
		return err
	}
	matrix, err := experiments.AttackMatrix(o.cfg)
	if err != nil {
		return err
	}
	if o.json {
		return writeJSON(w, struct {
			Experiment string                       `json:"experiment"`
			Seed       uint64                       `json:"seed"`
			RatePPS    float64                      `json:"rate_pps"`
			DurationNS int64                        `json:"duration_ns"`
			Frontier   []experiments.SeqFrontierRow `json:"frontier"`
			Matrix     []experiments.MatrixRow      `json:"matrix"`
		}{"seqdetect", o.cfg.Seed, o.cfg.RatePPS, o.cfg.DurationNS, frontier, matrix})
	}
	section(w, o, "Sequential detection — latency-vs-magnitude frontier (SPRT vs per-epoch batch)")
	fmt.Fprint(w, experiments.SeqFrontierRender(frontier, o.markdown))
	section(w, o, "Adversary matrix — batch vs sequential epochs-to-verdict")
	fmt.Fprint(w, experiments.MatrixRender(matrix, o.markdown))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vpm-bench:", strings.TrimPrefix(err.Error(), "vpm-bench: "))
	os.Exit(1)
}
