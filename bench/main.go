// Command bench is the repository's benchmark: one end-to-end and
// per-layer measurement of the collect → disseminate → verify →
// persist pipeline, in-process and over HTTP. See README.md in this
// directory for the metric and workload definitions, and
// BENCHMARK.json at the repository root for the contract it is run
// under.
//
//	go run ./bench -workload fig1-stream -seed 1 -seconds 7 -trace 0
//	go run ./bench -workload all -trace 1
//	go run ./bench -workload all -repeat 2 -compare
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vpm/internal/fleet"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload measured once. Its JSON form is the line the
// benchmark contract asks for.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload    string
	seed        uint64
	fingerprint string
	failures    []string
	// e2e and layers hold every value measured, whichever set Metrics
	// reports.
	e2e, layers map[string]float64
}

// environment is what a reader needs to compare two result files.
type environment struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	// SegstoreTmpfs reports that the scratch directory is RAM-backed,
	// so the segstore numbers contain no real fsync.
	SegstoreTmpfs bool `json:"segstore_tmpfs"`
}

func currentEnvironment(scratch string) environment {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return environment{
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GOGC:          gogc,
		SegstoreTmpfs: isTmpfs(scratch),
	}
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "the only source of randomness")
		seconds = flag.Int("seconds", defaultSeconds, "run length the workload sizes scale with")
		trace   = flag.Int("trace", 0, "1: repeat each workload with spans on and report the per-layer metrics")
		repeat  = flag.Int("repeat", 1, "measure this many sets")
		compare = flag.Bool("compare", false, "with -repeat: print the spread per metric and fail if the later sets are worse than the earlier by more than the bound in BENCHMARK.json")
		out     = flag.String("out", filepath.Join("bench", "out"), "directory for spans, results and the segstore scratch")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace != 0, *repeat, *compare, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, repeat int, compare bool, out string) error {
	if seconds < 1 || repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be at least 1")
	}
	selected := workloads
	if name != "all" {
		w, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{w}
	}
	// One client, one epoch in flight; two procs leave the runtime's
	// background GC a core of its own where there is one.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	env := currentEnvironment(out)
	fmt.Printf("# %s nproc=%d GOMAXPROCS=%d GOGC=%s segstore_tmpfs=%v seed=%d seconds=%d\n",
		env.GoVersion, env.NumCPU, env.GOMAXPROCS, env.GOGC, env.SegstoreTmpfs, seed, seconds)

	var sets [][]*result
	wrong := 0
	for s := 0; s < repeat; s++ {
		var set []*result
		for _, w := range selected {
			res, err := measure(w, seed, seconds, traced, out)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printResult(res)
			if !res.Correct {
				wrong++
			}
			set = append(set, res)
		}
		sets = append(sets, set)
	}

	if compare {
		if err := compareSets(sets); err != nil {
			return err
		}
	}
	if name == "all" || repeat > 1 {
		if err := writeSummary(filepath.Join(out, "results.json"), env, seed, seconds, sets); err != nil {
			return err
		}
	} else {
		// The contract line: last on standard output.
		line, err := json.Marshal(sets[0][0])
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if wrong > 0 {
		return fmt.Errorf("output check failed on %d run(s)", wrong)
	}
	return nil
}

// measure runs one workload: an untraced pass for the end-to-end
// metrics, and with traced a second pass with spans on for the
// per-layer metrics. Both passes must produce the same verdicts.
func measure(w workload, seed uint64, seconds int, traced bool, out string) (*result, error) {
	res := &result{workload: w.name, seed: seed}
	var plain, spanned *outcome
	var err error
	if plain, err = pass(w, seed, seconds, false, out); err != nil {
		return nil, err
	}
	res.e2e = plain.values
	res.fingerprint = plain.fingerprint
	res.Attempted, res.Failed, res.failures = plain.attempted, plain.failed, plain.failures
	if traced {
		if spanned, err = pass(w, seed, seconds, true, out); err != nil {
			return nil, err
		}
		res.layers = spanned.values
		res.layers["harness.trace_overhead_frac"] = ratio(float64(spanned.timedNS-plain.timedNS), float64(plain.timedNS))
		res.layers["harness.check_s"] = plain.checkS
		if spanned.fingerprint != plain.fingerprint {
			res.Failed++
			res.failures = append(res.failures, fmt.Sprintf("traced pass fingerprint %s differs from untraced %s", spanned.fingerprint, plain.fingerprint))
		}
		res.Failed += spanned.failed
		res.Attempted += spanned.attempted
		if spanned.failed > 0 {
			// A clean traced pass only repeats the untraced one's notes.
			res.failures = append(res.failures, spanned.failures...)
		}
		if err := writeSpans(filepath.Join(out, w.name+".spans.json"), spanned.spans); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	defs, values := endToEnd, res.e2e
	if traced {
		defs, values = perLayer, res.layers
	}
	res.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return res, nil
}

// pass makes one pass over w, with spans on when traced.
func pass(w workload, seed uint64, seconds int, traced bool, out string) (*outcome, error) {
	if w.fleet != nil {
		return fleetPass(w.fleet(seed, seconds), traced)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	world, err := w.inproc(seed)
	if err != nil {
		return nil, err
	}
	run, err := runInproc(world, seed, w.epochsFor(seconds), tr, out)
	if err != nil {
		return nil, err
	}
	o := &outcome{
		fingerprint: run.fingerprint, attempted: run.attempted, failed: run.failed, failures: run.failures,
		timedNS: run.timedNS, spans: run.spans, checkS: float64(run.checkNS) / 1e9,
	}
	o.values = run.endToEnd()
	if tr != nil {
		o.values = run.layers()
	}
	return o, nil
}

// fleetPass measures the fleet fleetReps times on identical worlds and
// reports each metric's median over the repetitions. The fleet layer
// runs as one shot — there are no epochs to take a median over — and
// a single shot on a shared box swings by a tenth or more; the first
// one also pays for faulting the heap in.
func fleetPass(spec fleet.Spec, traced bool) (*outcome, error) {
	o := &outcome{}
	perRep := make(map[string][]float64)
	var setupNS, timed []float64
	for rep := 0; rep < fleetReps; rep++ {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		run, err := runFleet(spec, tr)
		if err != nil {
			return nil, err
		}
		// The single-process reference is computed once per
		// invocation: on the first repetition of the untraced pass.
		checkStart := time.Now()
		attempted, failures, err := fleetCheck(run, !traced && rep == 0)
		if err != nil {
			return nil, err
		}
		o.checkS += time.Since(checkStart).Seconds()
		if rep > 0 && run.fingerprint != o.fingerprint {
			failures = append(failures, fmt.Sprintf("repetition %d fingerprint %s differs from the first's %s", rep, run.fingerprint, o.fingerprint))
		}
		o.fingerprint = run.fingerprint
		o.attempted += attempted
		o.failed += int64(len(failures))
		o.failures = append(o.failures, failures...)
		values := run.endToEnd()
		if traced {
			values = run.layers()
			o.spans = run.spans
		}
		for name, v := range values {
			perRep[name] = append(perRep[name], v)
		}
		setupNS = append(setupNS, float64(run.setupNS))
		timed = append(timed, float64(run.timedNS))
	}
	o.values = make(map[string]float64, len(perRep))
	for name, vs := range perRep {
		o.values[name] = median(vs)
	}
	o.timedNS = int64(median(timed))
	if !traced {
		// Set-up is what the run spent outside its timed regions.
		o.values["setup_s"] = 0
		for _, ns := range setupNS {
			o.values["setup_s"] += ns / 1e9
		}
	}
	return o, nil
}

func printResult(res *result) {
	verdict := "ok"
	if !res.Correct {
		verdict = "WRONG"
	}
	fmt.Printf("\n== %s seed=%d  check %s  attempted=%d failed=%d  fingerprint=%.16s\n",
		res.workload, res.seed, verdict, res.Attempted, res.Failed, res.fingerprint)
	for _, f := range res.failures {
		// On a correct run these are tolerated false positives.
		fmt.Printf("   %s %s\n", map[bool]string{true: "note", false: "FAIL"}[res.Correct], f)
	}
	for _, d := range endToEnd {
		fmt.Printf("   %-36s %16.6f %s\n", d.name, res.e2e[d.name], d.unit)
	}
	if res.layers == nil {
		return
	}
	for _, d := range perLayer {
		fmt.Printf("   %-36s %16.6f %s\n", d.name, res.layers[d.name], d.unit)
	}
}

// summary is the results file written by -workload all and -repeat.
type summary struct {
	Env     environment  `json:"env"`
	Seed    uint64       `json:"seed"`
	Seconds int          `json:"seconds"`
	Sets    [][]setEntry `json:"sets"`
	// Claim is always null: this benchmark's own change claims no
	// gain; the first baseline is the one these runs record.
	Claim *string `json:"claim"`
}

type setEntry struct {
	Workload    string             `json:"workload"`
	Correct     bool               `json:"correct"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	Fingerprint string             `json:"fingerprint"`
	EndToEnd    map[string]float64 `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
}

func writeSummary(path string, env environment, seed uint64, seconds int, sets [][]*result) error {
	s := summary{Env: env, Seed: seed, Seconds: seconds}
	for _, set := range sets {
		var entries []setEntry
		for _, r := range set {
			entries = append(entries, setEntry{
				Workload: r.workload, Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
				Fingerprint: r.fingerprint, EndToEnd: r.e2e, PerLayer: r.layers,
			})
		}
		s.Sets = append(s.Sets, entries)
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
