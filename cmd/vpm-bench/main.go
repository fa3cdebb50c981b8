// Command vpm-bench regenerates the paper's evaluation: every table
// and figure (DESIGN.md's per-experiment index E1-E8), printed as
// aligned text or Markdown.
//
// Usage:
//
//	vpm-bench [-run all|fig2|fig3|table1|memory|bandwidth|click|verif|attacks|seqdetect|throughput|verify|epochs|topo|churn|segstore|fleet]
//	          [-duration 1s] [-rate 100000] [-seed 1] [-markdown] [-o out.md]
//	          [-json] [-churn-keys 1048576]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The defaults reproduce the paper's scale (100k packets/second for
// one second per experiment point). Use a smaller -duration for a
// quick pass.
//
// -run throughput measures the collection pipeline (the reference
// collector's per-packet Observe vs the batched pipeline deployments
// run); -run verify measures the verification pipeline on the 16-HOP ×
// 64-path scenario (per-key rebuild baseline vs the shared indexed
// receipt store). With -json both emit a machine-readable document so
// the perf trajectory can be tracked across PRs:
//
//	vpm-bench -run throughput -json -o BENCH_throughput.json
//	vpm-bench -run verify -json -o BENCH_verify.json
//
// -run topo sweeps the mesh topology families (star, tree, Clos-like
// ECMP fabric, random AS graph): honest and faulty-shared-link
// scenarios per family, shared-link blame localization and a verdict
// fingerprint reported per row:
//
//	vpm-bench -run topo -json -o BENCH_topo.json
//
// -run throughput also meters steady-state heap behavior (allocs,
// bytes and encoded receipt bytes per packet across the whole
// observe → drain → encode → recycle cycle) and adds a sketch-backend
// row; -run churn cycles -churn-keys distinct traffic keys through
// the collector in disjoint waves with idle-path eviction on and
// reports whether the live heap stays flat. -cpuprofile/-memprofile
// write pprof profiles of whichever experiment runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"vpm/internal/experiments"
	"vpm/internal/fleet"
)

func main() {
	var (
		run        = flag.String("run", "all", "experiment to run: all, fig2, fig3, table1, memory, bandwidth, click, verif, attacks, seqdetect, throughput, verify, epochs, topo, churn, segstore, fleet")
		duration   = flag.Duration("duration", time.Second, "trace duration per experiment point (the epoch interval for -run epochs)")
		rate       = flag.Float64("rate", 100000, "foreground path packet rate (packets/second)")
		seed       = flag.Uint64("seed", 1, "experiment seed")
		markdown   = flag.Bool("markdown", false, "emit Markdown tables")
		jsonOut    = flag.Bool("json", false, "emit machine-readable JSON (throughput, verify, epochs, attacks, seqdetect, topo, churn, segstore and fleet experiments)")
		epochs     = flag.Int("epochs", 8, "epochs to rotate through for -run epochs (and key waves for -run churn)")
		retain     = flag.String("retention", "2,4", "comma-separated retention windows for -run epochs")
		churnKeys  = flag.Int("churn-keys", 1<<20, "distinct traffic keys to cycle through for -run churn")
		fltDomains = flag.Int("fleet-domains", 1000, "random-AS topology size for -run fleet")
		fltKeys    = flag.Int("fleet-keys", 1<<20, "distinct traffic keys for -run fleet")
		fltColls   = flag.Int("fleet-collectors", 2, "collector processes for -run fleet")
		fltWidths  = flag.String("fleet-verifiers", "1,2,4", "comma-separated verifier tier widths for -run fleet")
		fltCheck   = flag.Bool("fleet-check", true, "also replay the fleet world single-process and require byte-identical merges")
		out        = flag.String("o", "", "write output to file instead of stdout")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (taken after the experiments finish) to this file")
	)
	flag.Parse()

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

	retentions, err := parseCounts(*retain)
	if err != nil {
		fatal(err)
	}

	cfg := experiments.Config{
		Seed:       *seed,
		RatePPS:    *rate,
		DurationNS: duration.Nanoseconds(),
	}

	if *jsonOut && *run != "throughput" && *run != "verify" && *run != "epochs" && *run != "attacks" && *run != "seqdetect" && *run != "topo" && *run != "churn" && *run != "segstore" && *run != "fleet" {
		fatal(fmt.Errorf("-json is only supported with -run throughput, verify, epochs, attacks, seqdetect, topo, churn, segstore or fleet"))
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

	wanted := func(name string) bool { return *run == "all" || *run == name }
	ran := false

	section := func(title string) {
		if *markdown {
			fmt.Fprintf(w, "\n## %s\n\n", title)
		} else {
			fmt.Fprintf(w, "\n=== %s ===\n\n", title)
		}
	}

	if wanted("table1") {
		ran = true
		section("Table 1 — partitions, coarser-than, joins")
		fmt.Fprint(w, experiments.Table1Render(experiments.Table1(), *markdown))
	}
	if wanted("fig2") {
		ran = true
		section("Figure 2 — delay accuracy [ms] vs sampling rate, per loss level")
		rows, err := experiments.Fig2(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprint(w, experiments.Fig2Render(rows, *markdown))
	}
	if wanted("fig3") {
		ran = true
		section("Figure 3 — loss granularity [sec] vs loss rate")
		rows, err := experiments.Fig3(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprint(w, experiments.Fig3Render(rows, *markdown))
	}
	if wanted("memory") {
		ran = true
		section("§7.1 — memory overhead (paper arithmetic vs this implementation)")
		fmt.Fprint(w, experiments.MemoryRender(experiments.MemoryOverhead(), *markdown))
	}
	if wanted("bandwidth") {
		ran = true
		section("§7.1 — receipt bandwidth overhead")
		rows, err := experiments.BandwidthOverhead(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprint(w, experiments.BandwidthRender(rows, *markdown))
	}
	if wanted("click") {
		ran = true
		section("§7.1 — forwarding throughput with and without the VPM collector")
		rows, err := experiments.Click(cfg, 2_000_000)
		if err != nil {
			fatal(err)
		}
		fmt.Fprint(w, experiments.ClickRender(rows, *markdown))
	}
	if wanted("verif") {
		ran = true
		section("§7.2 — verifiability vs the witness's sampling rate")
		rows, err := experiments.Verifiability(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprint(w, experiments.VerifiabilityRender(rows, *markdown))
	}
	if wanted("attacks") {
		ran = true
		matrix, err := experiments.AttackMatrix(cfg)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			// The scenario-coverage trajectory document (BENCH_4.json
			// and onward): every adversary × mode with its verdict and
			// blame, plus the cross-protocol ablation for context.
			ablation, err := experiments.Attacks(cfg)
			if err != nil {
				fatal(err)
			}
			doc := struct {
				Experiment string                  `json:"experiment"`
				Seed       uint64                  `json:"seed"`
				RatePPS    float64                 `json:"rate_pps"`
				DurationNS int64                   `json:"duration_ns"`
				Rows       []experiments.MatrixRow `json:"rows"`
				Ablation   []experiments.AttackRow `json:"ablation"`
			}{"attacks", cfg.Seed, cfg.RatePPS, cfg.DurationNS, matrix, ablation}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(doc); err != nil {
				fatal(err)
			}
		} else {
			section("§3/§5 — protocol × adversary ablation")
			rows, err := experiments.Attacks(cfg)
			if err != nil {
				fatal(err)
			}
			fmt.Fprint(w, experiments.AttacksRender(rows, *markdown))
			section("Byzantine HOP matrix — adversary × pipeline mode")
			fmt.Fprint(w, experiments.MatrixRender(matrix, *markdown))
		}
	}
	if wanted("throughput") {
		ran = true
		rows, err := experiments.Throughput(cfg)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			doc := struct {
				Experiment string                      `json:"experiment"`
				Seed       uint64                      `json:"seed"`
				RatePPS    float64                     `json:"rate_pps"`
				DurationNS int64                       `json:"duration_ns"`
				Rows       []experiments.ThroughputRow `json:"rows"`
			}{"throughput", cfg.Seed, cfg.RatePPS, cfg.DurationNS, rows}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(doc); err != nil {
				fatal(err)
			}
		} else {
			section("Collection pipeline — serial vs batched throughput")
			fmt.Fprint(w, experiments.ThroughputRender(rows, *markdown))
		}
	}
	if wanted("verify") {
		ran = true
		rows, err := experiments.Verify(cfg)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			doc := struct {
				Experiment string                  `json:"experiment"`
				Seed       uint64                  `json:"seed"`
				RatePPS    float64                 `json:"rate_pps"`
				DurationNS int64                   `json:"duration_ns"`
				Rows       []experiments.VerifyRow `json:"rows"`
			}{"verify", cfg.Seed, cfg.RatePPS, cfg.DurationNS, rows}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(doc); err != nil {
				fatal(err)
			}
		} else {
			section("Verification pipeline — per-key rebuild vs shared indexed store")
			fmt.Fprint(w, experiments.VerifyRender(rows, *markdown))
		}
	}
	if wanted("topo") {
		ran = true
		rows, err := experiments.Topo(cfg)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			doc := struct {
				Experiment string                `json:"experiment"`
				Seed       uint64                `json:"seed"`
				RatePPS    float64               `json:"rate_pps"`
				DurationNS int64                 `json:"duration_ns"`
				Rows       []experiments.TopoRow `json:"rows"`
			}{"topo", cfg.Seed, cfg.RatePPS, cfg.DurationNS, rows}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(doc); err != nil {
				fatal(err)
			}
		} else {
			section("Mesh & multipath — topology families, shared-link blame")
			fmt.Fprint(w, experiments.TopoRender(rows, *markdown))
		}
	}
	if wanted("segstore") {
		ran = true
		// The durable-store sweep: block write + seal throughput and
		// cold-recovery replay, in-memory ceiling vs real disk. -epochs
		// scales the store size (64 per backend by default).
		segEpochs := *epochs
		if segEpochs <= 8 {
			segEpochs = 64 // the vpm-node default is too small to measure
		}
		rows, err := experiments.Segstore(segEpochs)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			doc := struct {
				Experiment string                    `json:"experiment"`
				Seed       uint64                    `json:"seed"`
				Epochs     int                       `json:"epochs"`
				Rows       []experiments.SegstoreRow `json:"rows"`
			}{"segstore", cfg.Seed, segEpochs, rows}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(doc); err != nil {
				fatal(err)
			}
		} else {
			section("Durable segment store — write and recovery-replay throughput")
			fmt.Fprint(w, experiments.SegstoreRender(rows, *markdown))
		}
	}
	if *run == "churn" { // too heavy for "all": cycles -churn-keys distinct paths
		ran = true
		row, err := experiments.Churn(*churnKeys, *epochs, 4)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			doc := struct {
				Experiment string               `json:"experiment"`
				Seed       uint64               `json:"seed"`
				Row        experiments.ChurnRow `json:"row"`
			}{"churn", cfg.Seed, row}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(doc); err != nil {
				fatal(err)
			}
		} else {
			section("Key churn — monitoring-cache eviction under path turnover")
			fmt.Fprint(w, experiments.ChurnRender(row, *markdown))
		}
	}
	if wanted("seqdetect") {
		ran = true
		// The sequential-detection frontier: latency-vs-magnitude
		// curves (SPRT vs a memoryless per-epoch batch test) plus the
		// adversary matrix rows carrying the batch/sequential
		// epochs-to-verdict columns the CI gate checks.
		frontier, err := experiments.SeqFrontier(cfg)
		if err != nil {
			fatal(err)
		}
		matrix, err := experiments.AttackMatrix(cfg)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			doc := struct {
				Experiment string                       `json:"experiment"`
				Seed       uint64                       `json:"seed"`
				RatePPS    float64                      `json:"rate_pps"`
				DurationNS int64                        `json:"duration_ns"`
				Frontier   []experiments.SeqFrontierRow `json:"frontier"`
				Matrix     []experiments.MatrixRow      `json:"matrix"`
			}{"seqdetect", cfg.Seed, cfg.RatePPS, cfg.DurationNS, frontier, matrix}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(doc); err != nil {
				fatal(err)
			}
		} else {
			section("Sequential detection — latency-vs-magnitude frontier (SPRT vs per-epoch batch)")
			fmt.Fprint(w, experiments.SeqFrontierRender(frontier, *markdown))
			section("Adversary matrix — batch vs sequential epochs-to-verdict")
			fmt.Fprint(w, experiments.MatrixRender(matrix, *markdown))
		}
	}
	if wanted("epochs") {
		ran = true
		rows, err := experiments.Epochs(cfg, *epochs, retentions)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			doc := struct {
				Experiment string                  `json:"experiment"`
				Seed       uint64                  `json:"seed"`
				RatePPS    float64                 `json:"rate_pps"`
				IntervalNS int64                   `json:"interval_ns"`
				Epochs     int                     `json:"epochs"`
				Rows       []experiments.EpochsRow `json:"rows"`
			}{"epochs", cfg.Seed, cfg.RatePPS, cfg.DurationNS, *epochs, rows}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(doc); err != nil {
				fatal(err)
			}
		} else {
			section("Continuous operation — batch vs rotating epochs")
			fmt.Fprint(w, experiments.EpochsRender(rows, *markdown))
		}
	}
	// -run fleet only, never under "all": it compiles and spawns the
	// real vpm-fleet process tree, which is a CI job of its own, not a
	// table in the default sweep.
	if *run == "fleet" {
		ran = true
		widths, err := parseCounts(*fltWidths)
		if err != nil {
			fatal(err)
		}
		// The interval is -duration; the rate is derived so the epoch
		// stream touches every traffic key about twice over the run.
		fleetEpochs := 4
		spec := fleet.Spec{
			Seed:       *seed,
			Domains:    *fltDomains,
			ExtraLinks: *fltDomains / 2,
			Keys:       *fltKeys,
			Epochs:     fleetEpochs,
			IntervalNS: duration.Nanoseconds(),
			RatePPS:    2 * float64(*fltKeys) / (float64(fleetEpochs) * duration.Seconds()),
			Collectors: *fltColls,
		}
		rows, err := experiments.Fleet(spec, widths, *fltCheck)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			doc := struct {
				Experiment string           `json:"experiment"`
				Seed       uint64           `json:"seed"`
				Collectors int              `json:"collectors"`
				IntervalNS int64            `json:"interval_ns"`
				Checked    bool             `json:"checked_against_reference"`
				Rows       []fleet.BenchRow `json:"rows"`
			}{"fleet", *seed, *fltColls, duration.Nanoseconds(), *fltCheck, rows}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(doc); err != nil {
				fatal(err)
			}
		} else {
			section("Fleet scale-out — verifier processes vs keys/s, byte-identical merges")
			fmt.Fprint(w, experiments.FleetRender(rows, *markdown))
		}
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q (want one of all, fig2, fig3, table1, memory, bandwidth, click, verif, attacks, seqdetect, throughput, verify, epochs, topo, churn, segstore, fleet)", *run))
	}
}

// parseCounts parses a comma-separated positive-integer list
// ("1,2,4"), shared by -retention and -fleet-verifiers.
func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vpm-bench:", strings.TrimPrefix(err.Error(), "vpm-bench: "))
	os.Exit(1)
}
