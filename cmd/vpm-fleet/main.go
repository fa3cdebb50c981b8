// Command vpm-fleet runs the measurement pipeline as a multi-process
// fleet: per-domain collector processes stream sealed epochs over HTTP,
// each domain's epoch one payload signed with the domain's key, to a
// sharded verifier tier that splits traffic keys evenly across N
// verifier processes by jump consistent hashing, and a merge step recombines the shards' partial
// verdicts into union epoch reports byte-identical to a single
// process's at any shard count.
//
// Subcommands:
//
//	vpm-fleet collect -spec JSON -index I [-addr 127.0.0.1:0] [-pace D]
//	    One collector process: simulates the shared world, drives the
//	    epoch pipeline for the HOPs of its domain slice, serves one
//	    signed feed per domain (GET /hops, /domain/{d}/receipts,
//	    /status). Announces "serving on http://..." on stderr; keeps
//	    serving after the simulation finishes until SIGINT/SIGTERM.
//
//	vpm-fleet verify -spec JSON -shards N -shard I -collectors URLS -out F [-http ADDR]
//	    One verifier shard: fetches every collector's bundles with
//	    bounded retry, verifies its key slice, writes its part file
//	    atomically, exits. With -http it serves the runtime profiles
//	    under /debug/pprof/ and its window under /debug/epochs while
//	    it runs and announces "serving on http://..." on stderr.
//
//	vpm-fleet run -spec JSON [-verifiers 1,2,4] [-check] [-json] [-dir D]
//	    Local supervisor harness: spawns the collector processes and,
//	    for each requested tier width, a verifier tier (reusing the
//	    same collector set — feeds are retained and re-fetchable);
//	    merges each tier's parts and reports the verdict fingerprint
//	    per width. -check additionally runs the single-process
//	    reference in-process and fails unless every width's merged
//	    verdicts are byte-identical to it.
//
// Every process derives the world from the same -spec JSON (see
// fleet.Spec): there is no state to distribute, only a seed to agree
// on.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vpm/internal/dissem"
	"vpm/internal/fleet"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "collect":
		runCollect(os.Args[2:])
	case "verify":
		runVerify(os.Args[2:])
	case "run":
		// Exits only here, after the defers stopped the children.
		if err := runSupervisor(os.Args[2:]); err != nil {
			fatal(err)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: vpm-fleet {collect|verify|run} [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vpm-fleet:", err)
	os.Exit(1)
}

// defaultSpec is the demo world `run` uses when -spec is omitted.
func defaultSpec() fleet.Spec {
	return fleet.Spec{
		Seed:       1,
		Domains:    12,
		ExtraLinks: 8,
		Keys:       256,
		Epochs:     4,
		IntervalNS: 100_000_000,
		RatePPS:    100_000,
		Collectors: 2,
	}
}

func parseSpecFlag(text string) fleet.Spec {
	if text == "" {
		return defaultSpec()
	}
	s, err := fleet.ParseSpec(text)
	if err != nil {
		fatal(err)
	}
	return s
}

func runCollect(args []string) {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	specText := fs.String("spec", "", "fleet spec JSON (empty: demo spec)")
	index := fs.Int("index", 0, "collector index in [0, spec.collectors)")
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	pace := fs.Duration("pace", 0, "real-time sleep between simulation segments")
	chunk := fs.Int64("chunk", 0, "packet slots per simulation segment (0: default)")
	fs.Parse(args)

	spec := parseSpecFlag(*specText)
	w, err := spec.Build()
	if err != nil {
		fatal(err)
	}
	c, err := fleet.NewCollector(w, *index)
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The same lifecycle conventions as the other daemons: header and
	// read timeouts so a stalled peer cannot pin a connection open
	// forever, SIGINT/SIGTERM drains in-flight requests with a bounded
	// deadline, and a serve error is a nonzero exit.
	srv := &http.Server{
		Handler:           c.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "vpm-fleet: collector %d serving on http://%s (%d HOPs)\n",
		*index, ln.Addr(), len(c.Owned()))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		cancel()
	}()

	if err := c.Run(ctx, fleet.CollectorOptions{ChunkSlots: *chunk, Pace: *pace}); err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "vpm-fleet: collector interrupted before finishing")
			os.Exit(1)
		}
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "vpm-fleet: collector %d finished (terminal epoch %d) — serving until signal\n",
		*index, w.Terminal)

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fatal(fmt.Errorf("serve: %w", err))
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "vpm-fleet: drain deadline exceeded — closing")
		srv.Close()
	}
	fmt.Fprintln(os.Stderr, "vpm-fleet: collector clean shutdown")
}

func runVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	specText := fs.String("spec", "", "fleet spec JSON (empty: demo spec)")
	shards := fs.Int("shards", 1, "verifier tier width")
	shard := fs.Int("shard", 0, "this shard's index")
	collectors := fs.String("collectors", "", "comma-separated collector base URLs")
	out := fs.String("out", "", "part file path (empty: stdout)")
	httpAddr := fs.String("http", "", "serve /debug/pprof/ and /debug/epochs on this address while the shard runs (empty: off)")
	fs.Parse(args)

	w, err := parseSpecFlag(*specText).Build()
	if err != nil {
		fatal(err)
	}
	urls := strings.Split(*collectors, ",")
	if *collectors == "" {
		fatal(fmt.Errorf("verify needs -collectors"))
	}
	v, err := fleet.NewVerifier(w, *shards, *shard, fleet.VerifierOptions{})
	if err != nil {
		fatal(err)
	}
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatal(err)
		}
		mux := http.NewServeMux()
		fleet.HandleProfiles(mux)
		v.HandleEpochs(mux)
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "vpm-fleet: shard %d/%d serving on http://%s\n", *shard, *shards, ln.Addr())
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	reports, err := v.Run(ctx, urls, fleet.VerifierOptions{Retry: dissem.DefaultRetryPolicy})
	if err != nil {
		fatal(err)
	}
	part, err := fleet.NewShardOutput(*shards, *shard, reports)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		enc, err := json.Marshal(part)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(append(enc, '\n'))
	} else if err := part.WriteFile(*out); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "vpm-fleet: shard %d/%d verified %d epochs\n", *shard, *shards, len(reports))
}

// servingRE scrapes a collector child's announced address.
var servingRE = regexp.MustCompile(`serving on (http://[^\s]+)`)

// collectorProc is one spawned collector child.
type collectorProc struct {
	cmd *exec.Cmd
	url string
}

// startCollectors spawns one collector child per spec slot and waits
// for each to announce its address. On failure it returns those started.
func startCollectors(self string, spec fleet.Spec, pace time.Duration) ([]*collectorProc, error) {
	procs := make([]*collectorProc, spec.Collectors)
	for i := range procs {
		args := []string{"collect", "-spec", spec.Encode(), "-index", strconv.Itoa(i), "-addr", "127.0.0.1:0"}
		if pace > 0 {
			args = append(args, "-pace", pace.String())
		}
		cmd := exec.Command(self, args...)
		dieWithParent(cmd)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			return procs, err
		}
		cmd.Stdout = os.Stdout
		if err := cmd.Start(); err != nil {
			return procs, err
		}
		procs[i] = &collectorProc{cmd: cmd}
		urlCh := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				line := sc.Text()
				if m := servingRE.FindStringSubmatch(line); m != nil {
					select {
					case urlCh <- m[1]:
					default:
					}
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}()
		select {
		case procs[i].url = <-urlCh:
		case <-time.After(30 * time.Second):
			return procs, fmt.Errorf("collector %d never announced its address", i)
		}
	}
	return procs, nil
}

// stopCollectors signals every started collector and waits for it.
func stopCollectors(procs []*collectorProc) {
	for _, p := range procs {
		if p != nil {
			p.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	for _, p := range procs {
		if p != nil {
			p.cmd.Wait()
		}
	}
}

// waitFinished polls every collector's /status until the simulation is
// done, so verifier-tier timings measure verification, not collection.
// Each poll is bounded by the time left: a collector that accepts the
// connection and never answers cannot outlive the timeout.
func waitFinished(procs []*collectorProc, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for _, p := range procs {
		for {
			var st fleet.CollectorStatus
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/status", nil)
			if err != nil {
				return err
			}
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
			}
			if err == nil && st.Finished {
				break
			}
			if ctx.Err() != nil {
				return fmt.Errorf("collector %s not finished after %v", p.url, timeout)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return nil
}

func runSupervisor(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	specText := fs.String("spec", "", "fleet spec JSON (empty: demo spec)")
	verifiers := fs.String("verifiers", "1,2,4", "comma-separated verifier tier widths to sweep")
	check := fs.Bool("check", false, "also run the single-process reference and require byte-identical merges")
	jsonOut := fs.Bool("json", false, "emit JSON rows instead of text")
	dir := fs.String("dir", "", "working directory for part files (empty: temp)")
	pace := fs.Duration("pace", 0, "collector pacing (for lifecycle testing)")
	collectTimeout := fs.Duration("collect-timeout", 2*time.Hour, "how long to wait for the collectors to finish simulating")
	fs.Parse(args)

	spec := parseSpecFlag(*specText)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	workDir := *dir
	if workDir == "" {
		workDir, err = os.MkdirTemp("", "vpm-fleet-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(workDir)
	} else if st, err := os.Stat(workDir); err != nil {
		return fmt.Errorf("-dir: %w", err)
	} else if !st.IsDir() {
		return fmt.Errorf("-dir %s: not a directory", workDir)
	}

	var widths []int
	for _, t := range strings.Split(*verifiers, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(t))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -verifiers entry %q", t)
		}
		widths = append(widths, n)
	}

	procs, err := startCollectors(self, spec, *pace)
	defer stopCollectors(procs)
	if err != nil {
		return err
	}
	if err := waitFinished(procs, *collectTimeout); err != nil {
		return err
	}
	urls := make([]string, len(procs))
	for i, p := range procs {
		urls[i] = p.url
	}

	// Optional in-process reference, computed once.
	var refEnc []json.RawMessage
	if *check {
		refW, err := spec.Build()
		if err != nil {
			return err
		}
		refReports, err := fleet.RunReference(refW, 0)
		if err != nil {
			return err
		}
		refEnc, err = fleet.EncodeReports(refReports)
		if err != nil {
			return err
		}
	}

	var rows []fleet.BenchRow
	for _, width := range widths {
		start := time.Now()
		parts := make([]*fleet.ShardOutput, width)
		errs := make([]error, width)
		var wg sync.WaitGroup
		for s := 0; s < width; s++ {
			partPath := filepath.Join(workDir, fmt.Sprintf("part-%d-of-%d.json", s, width))
			cmd := exec.Command(self, "verify",
				"-spec", spec.Encode(),
				"-shards", strconv.Itoa(width),
				"-shard", strconv.Itoa(s),
				"-collectors", strings.Join(urls, ","),
				"-out", partPath)
			cmd.Stderr = os.Stderr
			dieWithParent(cmd)
			wg.Add(1)
			go func(s int, cmd *exec.Cmd, partPath string) {
				defer wg.Done()
				if err := cmd.Run(); err != nil {
					errs[s] = fmt.Errorf("verifier %d/%d: %w", s, width, err)
					return
				}
				parts[s], errs[s] = fleet.ReadShardFile(partPath)
			}(s, cmd, partPath)
		}
		wg.Wait()
		wall := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		merged, err := fleet.MergeShardOutputs(parts)
		if err != nil {
			return err
		}
		if refEnc != nil {
			if len(merged) != len(refEnc) {
				return fmt.Errorf("width %d: merged %d epochs, reference has %d", width, len(merged), len(refEnc))
			}
			for e := range merged {
				if !bytes.Equal(merged[e], refEnc[e]) {
					return fmt.Errorf("width %d: epoch %d merged verdict diverges from single-process reference", width, e)
				}
			}
		}
		row := fleet.BenchRow{
			Procs:       width,
			Domains:     spec.Domains,
			Keys:        spec.Keys,
			Packets:     spec.TotalSlots(),
			Epochs:      spec.Epochs,
			WallMS:      float64(wall.Nanoseconds()) / 1e6,
			KeysPerSec:  float64(spec.Keys) * float64(len(merged)) / wall.Seconds(),
			Fingerprint: fleet.Fingerprint(merged),
		}
		rows = append(rows, row)
		if !*jsonOut {
			fmt.Printf("vpm-fleet: %d verifier(s): %d epochs merged in %v — %.0f keys/s, fingerprint %s\n",
				width, len(merged), wall.Round(time.Millisecond), row.KeysPerSec, row.Fingerprint)
		}
	}

	for _, r := range rows[1:] {
		if r.Fingerprint != rows[0].Fingerprint {
			return fmt.Errorf("fingerprints diverge across tier widths: %s (procs=%d) vs %s (procs=%d)",
				rows[0].Fingerprint, rows[0].Procs, r.Fingerprint, r.Procs)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			return err
		}
	} else if *check {
		fmt.Println("vpm-fleet: all tier widths byte-identical to the single-process reference")
	}
	return nil
}
