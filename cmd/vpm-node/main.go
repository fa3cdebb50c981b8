// Command vpm-node runs the whole VPM pipeline continuously: the Fig1
// workload is simulated epoch by epoch, every HOP seals each interval's
// receipts and publishes them as ed25519-signed epoch-tagged bundles,
// and a rolling verifier ingests the bundles into a windowed store,
// verifies each epoch as soon as every HOP has sealed it (concurrently
// with ingest of the next), and evicts verified epochs older than the
// retention window. One line is emitted per verified epoch; a summary
// (sustained epochs/s, steady-state heap, eviction counts) is printed
// on clean shutdown.
//
// Usage:
//
//	vpm-node [-epochs 8] [-interval 250ms] [-rate 50000] [-seed 1]
//	         [-retention 2] [-json] [-quiet]
//	         [-data-dir DIR] [-disk-retention N] [-http ADDR]
//	         [-serve-only] [-pace] [-sequential]
//
// -sequential arms the rolling verifier's concurrent SPRT arm
// (internal/seqdetect): per-(link, key) sequential detectors
// accumulate evidence across packets and epochs and emit early
// verdicts — logged as a per-epoch "SEQ VERDICT" line with the
// fractional epochs-to-verdict, the crossing statistic and the
// configured (α, β) — without touching the batch verdicts, whose
// persisted encodings stay byte-identical to an unarmed run.
//
// With -data-dir, sealed epochs and their verdict reports persist to a
// durable segment store (internal/segstore): the RAM window stays the
// verification working set while history accumulates on disk, and a
// killed process recovers on restart — boot replays the store's
// manifest, reports what survived, and the deterministic pipeline
// re-executes the stream without re-persisting (or re-verifying)
// anything already durable. A store that cannot be opened —
// corrupt manifest, segment failing its checksum, segments another
// release wrote in another format version — is a refusal to start
// (exit 3, see BootError), never a silent empty history.
//
// -http serves the historical-verdict query API, the runtime profiles
// of net/http/pprof under /debug/pprof/ and the verifier's window under
// /debug/epochs (see docs/OPERATIONS.md) alongside the run;
// -serve-only skips the pipeline entirely and just serves an existing
// store — the post-hoc audit mode. -pace slows the simulation to real time (one epoch per
// -interval of wall clock), the cadence a live deployment would have.
//
// SIGINT or SIGTERM stops cleanly at the next epoch boundary (systemd
// and docker stop send SIGTERM; treating it like SIGINT is what makes
// the daemon's epoch-boundary shutdown reachable in production — see
// docs/OPERATIONS.md). A second signal aborts immediately via context
// cancellation. The process exits 0 iff every started epoch was
// verified (or recovered already-verified) and shut down cleanly.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"vpm/internal/core"
	"vpm/internal/dissem"
	"vpm/internal/engine"
	"vpm/internal/netsim"
	"vpm/internal/receipt"
	"vpm/internal/segstore"
	"vpm/internal/seqdetect"
	"vpm/internal/trace"
)

// BootError wraps a failure to establish the durable store at boot.
// It exists so "the node lost or cannot trust its evidence" is a
// distinct, testable failure mode (exit code 3) rather than a generic
// crash: an operator seeing exit 3 knows the data directory needs
// attention and that the process refused to start with silently empty
// history.
type BootError struct {
	Err error
}

// Error implements error.
func (e *BootError) Error() string { return "durable store boot failure: " + e.Err.Error() }

// Unwrap exposes the underlying store error (segstore.ErrCorruptManifest,
// segstore.ErrSegmentIntegrity, segstore.ErrSegmentVersion, ...).
func (e *BootError) Unwrap() error { return e.Err }

// bootExitCode is the exit status for BootError — distinct from 1
// (runtime failure) so supervisors can tell "fix the data dir" from
// "the run failed".
const bootExitCode = 3

func main() {
	var (
		epochs    = flag.Int("epochs", 8, "number of epochs to run")
		interval  = flag.Duration("interval", 250*time.Millisecond, "epoch length (simulated time)")
		rate      = flag.Float64("rate", 50000, "foreground packet rate (packets/second)")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		retention = flag.Int("retention", 2, "verified epochs kept in RAM before eviction")
		jsonOut   = flag.Bool("json", false, "emit a JSON summary instead of text")
		quiet     = flag.Bool("quiet", false, "suppress per-epoch lines")
		dataDir   = flag.String("data-dir", "", "durable store directory (empty: RAM only)")
		diskRet   = flag.Int("disk-retention", 0, "sealed epochs kept on disk (0 = unbounded; needs -data-dir)")
		httpAddr  = flag.String("http", "", "serve the historical-verdict query API on this address (needs -data-dir)")
		serveOnly = flag.Bool("serve-only", false, "serve an existing store's query API without running the pipeline")
		pace      = flag.Bool("pace", false, "pace epochs in real time (one per -interval of wall clock)")
		seq       = flag.Bool("sequential", false, "arm the concurrent SPRT arm: early sequential verdicts logged per epoch")
	)
	flag.Parse()

	// First SIGINT/SIGTERM: finish the epoch in flight, verify it,
	// summarize, exit 0. A second signal cancels the context, which
	// aborts the collection loop mid-epoch (exit non-zero) — the
	// escape hatch when a clean boundary never comes.
	stop := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "vpm-node: signal — stopping at the next epoch boundary")
		close(stop)
		<-sigs
		fmt.Fprintln(os.Stderr, "vpm-node: second signal — aborting")
		cancel()
	}()

	// Durable store boot (recovery included).
	var store *segstore.Store
	if *dataDir != "" {
		s, stats, err := segstore.Open(*dataDir, segstore.Options{
			DiskRetention: *diskRet,
			AutoCompact:   true,
		})
		if errors.Is(err, segstore.ErrBadOptions) {
			fatal(fmt.Errorf("-disk-retention %d: %w", *diskRet, err))
		}
		if err != nil {
			fatalBoot(&BootError{Err: err})
		}
		store = s
		defer store.Close()
		fmt.Fprintf(os.Stderr, "vpm-node: %s: %s\n", *dataDir, stats)
	} else if *diskRet != 0 || *httpAddr != "" || *serveOnly {
		fatal(errors.New("-disk-retention, -http and -serve-only need -data-dir"))
	}

	// Query API server, alongside the run or standalone (-serve-only).
	var status *engine.EpochStatus
	if *httpAddr != "" {
		status = &engine.EpochStatus{}
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatal(fmt.Errorf("query API listen: %w", err))
		}
		srv := &http.Server{
			Handler:           nodeHandler(store, *interval, status),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go srv.Serve(ln)
		// Bounded drain: a peer that opened a connection but never sent
		// a request must not block exit (Shutdown with a background
		// context waits for it indefinitely).
		defer func() {
			sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer scancel()
			if err := srv.Shutdown(sctx); err != nil {
				srv.Close()
			}
		}()
		fmt.Fprintf(os.Stderr, "vpm-node: query API on http://%s\n", ln.Addr())
	}
	if *serveOnly {
		if *httpAddr == "" {
			fatal(errors.New("-serve-only without -http serves nothing"))
		}
		fmt.Fprintln(os.Stderr, "vpm-node: serve-only — signal to exit")
		<-stop
		fmt.Fprintln(os.Stderr, "vpm-node: clean shutdown")
		return
	}

	ec := core.EpochConfig{
		IntervalNS: interval.Nanoseconds(),
		Retention:  *retention,
	}
	if err := ec.Validate(); err != nil {
		fatal(err)
	}
	if *epochs < 1 {
		fatal(fmt.Errorf("need at least one epoch, got %d", *epochs))
	}
	// A zero seed or rate has always selected seed 1 and 100 kpps.
	if *seed == 0 {
		*seed = 1
	}
	if *rate == 0 {
		*rate = 100000
	}

	// The world: the Fig1 path with a collector on every HOP, its
	// foreground trace, and one signing bundle server per HOP on an
	// in-memory bus.
	tc := trace.Config{
		Seed:       *seed,
		DurationNS: int64(*epochs) * ec.IntervalNS,
		Paths:      []trace.PathSpec{trace.DefaultPath(*rate)},
	}
	gen, err := trace.NewGenerator(tc)
	if err != nil {
		fatal(err)
	}
	dep, err := core.NewDeployment(netsim.Fig1Path(*seed+1000), tc.Table(), core.DefaultDeployConfig())
	if err != nil {
		fatal(err)
	}
	hops := dep.HOPs()
	bus := engine.NewBusTransport(hops, func(h receipt.HOPID) *dissem.Signer {
		var keySeed [32]byte
		keySeed[0], keySeed[1] = byte(*seed), byte(h)
		return dissem.NewSigner(keySeed)
	})

	vc := dep.VerifierConfig()
	if *seq {
		sc := seqdetect.DefaultConfig()
		vc.Sequential = &sc
	}
	st := engine.Store{HOPs: hops, Retention: ec.Retention}
	if store != nil {
		st.Backend = segstore.Backend{Store: store}
	}
	ver, err := engine.NewVerify(st, engine.Checks{Config: vc, Layout: dep.Layout()})
	if err != nil {
		fatal(err)
	}
	ver.Feeds = bus.Feeds()
	seqVerdicts := 0
	ver.OnEpoch = func(rep core.EpochReport, ws core.WindowStats) {
		status.Update(ver, rep.Epoch, ws)
		seqVerdicts += len(rep.Seq)
		if !*quiet && !*jsonOut {
			printEpoch(rep, ws)
		}
	}
	col, err := engine.NewCollect(dep, hops, ec.IntervalNS, 0, bus.Sink())
	if err != nil {
		fatal(err)
	}
	sim, err := engine.NewSim(dep.Topo, dep.Table, nil)
	if err != nil {
		fatal(err)
	}
	// Per-epoch ingest wall time (simulation + rotation + publication;
	// verification overlaps the next epoch), and with -pace the sleep
	// that stretches each epoch to one interval of wall clock — still
	// answering the stop signal and cancellation promptly.
	var wallSum, wallMax time.Duration
	start := time.Now()
	segStart := start
	col.AfterSegment = func(ctx context.Context) error {
		wall := time.Since(segStart)
		wallSum += wall
		wallMax = max(wallMax, wall)
		if remain := *interval - wall; *pace && remain > 0 {
			timer := time.NewTimer(remain)
			defer timer.Stop()
			select {
			case <-timer.C:
			case <-stop:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		segStart = time.Now()
		return nil
	}
	if err := col.Run(ctx, engine.EpochSource(gen, ec.IntervalNS, *epochs, stop), sim, ver); err != nil {
		fatal(err)
	}
	wall := time.Since(start)

	sealed, recovered := int(col.Terminal)+1, int(ver.Window.Recovered())
	if ver.Epochs+recovered != sealed {
		// Every sealed epoch — each simulated interval plus the
		// terminal spill — must have been verified before shutdown,
		// or recovered already-verified from the durable store.
		fatal(fmt.Errorf("sealed %d epochs but verified %d and recovered %d", sealed, ver.Epochs, recovered))
	}
	window := ver.Window.Stats()
	// Steady-state heap: drop the trace machinery, keep the window.
	gen = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(ver)

	if *jsonOut {
		// CI's continuous-mode and recovery gates read these fields
		// by tag; the durable-store fields ride alongside.
		out := summary{
			Mode:            "continuous",
			Epochs:          col.Segments,
			IntervalMS:      float64(interval.Nanoseconds()) / 1e6,
			Retention:       *retention,
			Packets:         col.Packets,
			SampleReceipts:  int(bus.Samples.Load()),
			AggReceipts:     int(bus.Aggs.Load()),
			MatchedSamples:  ver.MatchedSamples,
			Violations:      ver.Violations,
			WallMS:          float64(wall.Nanoseconds()) / 1e6,
			EpochsPerSec:    float64(col.Segments) / wall.Seconds(),
			MaxEpochMS:      float64(wallMax.Nanoseconds()) / 1e6,
			HeapMB:          heapMB,
			SegmentsHeld:    window.Segments,
			SegmentsGCed:    window.Evicted,
			IndexBuilds:     window.IndexBuilds,
			IndexedSegments: window.IndexedSegments,
			RecoveredEpochs: recovered,
			SeqVerdicts:     seqVerdicts,
		}
		if col.Segments > 0 {
			out.MeanEpochMS = float64(wallSum.Nanoseconds()) / float64(col.Segments) / 1e6
		}
		if store != nil {
			st := store.StoreStats()
			out.Store = &st
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("vpm-node: %d epochs (%v each) over %d packets in %v — %.1f epochs/s sustained\n",
		col.Segments, *interval, col.Packets, wall.Round(time.Millisecond),
		float64(col.Segments)/wall.Seconds())
	fmt.Printf("vpm-node: %d sample + %d aggregate receipts, %d matched samples, %d violations\n",
		bus.Samples.Load(), bus.Aggs.Load(), ver.MatchedSamples, ver.Violations)
	fmt.Printf("vpm-node: window holds %d segments (%d evicted), steady-state heap %.1f MB\n",
		window.Segments, window.Evicted, heapMB)
	if store != nil {
		st := store.StoreStats()
		fmt.Printf("vpm-node: durable store holds %d sealed epochs in %d segments (%d reports, %.1f KB), %d recovered\n",
			st.SealedEpochs, st.Segments, st.Reports, float64(st.Bytes)/(1<<10), recovered)
	}
	fmt.Println("vpm-node: clean shutdown")
}

// summary is the -json document.
type summary struct {
	Mode            string          `json:"mode"`
	Epochs          int             `json:"epochs"`
	IntervalMS      float64         `json:"interval_ms"`
	Retention       int             `json:"retention"`
	Packets         int             `json:"packets"`
	SampleReceipts  int             `json:"sample_receipts"`
	AggReceipts     int             `json:"agg_receipts"`
	MatchedSamples  int64           `json:"matched_samples"`
	Violations      int             `json:"violations"`
	WallMS          float64         `json:"wall_ms"`
	EpochsPerSec    float64         `json:"epochs_per_sec"`
	MeanEpochMS     float64         `json:"mean_epoch_ms"`
	MaxEpochMS      float64         `json:"max_epoch_ms"`
	HeapMB          float64         `json:"heap_mb"`
	SegmentsHeld    int             `json:"segments_held"`
	SegmentsGCed    uint64          `json:"segments_gced"`
	IndexBuilds     uint64          `json:"index_builds"`
	IndexedSegments int             `json:"indexed_segments"`
	RecoveredEpochs int             `json:"recovered_epochs"`
	SeqVerdicts     int             `json:"seq_verdicts,omitempty"`
	Store           *segstore.Stats `json:"store,omitempty"`
}

// printEpoch emits the per-epoch line, and one line per early
// sequential verdict.
func printEpoch(rep core.EpochReport, ws core.WindowStats) {
	fmt.Printf("epoch %3d: keys=%d matched=%d violations=%d window=%d segs (%d gced)",
		rep.Epoch, len(rep.Keys), rep.MatchedSamples(), rep.Violations(), ws.Segments, ws.Evicted)
	for _, k := range rep.Keys {
		for _, dom := range k.Domains {
			if len(dom.DelayEstimates) > 0 {
				fmt.Printf("  %s: loss=%.3f%% p50=%.2fms",
					dom.Name, dom.Loss.Rate()*100, dom.DelayEstimates[0].Point/1e6)
				break // one headline domain per line keeps it readable
			}
		}
		break
	}
	fmt.Println()
	// Early sequential verdicts land in the epoch whose seal
	// crossed the SPRT threshold — often a fraction of an epoch
	// after the lie started, and before any batch judgment.
	for _, v := range rep.Seq {
		where := fmt.Sprintf("link %d->%d", v.Up, v.Down)
		if v.Domain != "" {
			where = "domain " + v.Domain
		}
		fmt.Printf("epoch %3d: SEQ VERDICT %s on %s key=%s at %.2f epochs (stat %.1f, n=%d, α=%.0e β=%.0e)\n",
			rep.Epoch, v.Class, where, v.Key, v.EpochsToVerdict(), v.Stat, v.N, v.Alpha, v.Beta)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vpm-node:", err)
	os.Exit(1)
}

// fatalBoot reports a BootError and exits with the boot-failure code.
func fatalBoot(err *BootError) {
	fmt.Fprintln(os.Stderr, "vpm-node:", err)
	os.Exit(bootExitCode)
}

// nodeHandler is the -http surface: the store's historical-verdict
// query API, the runtime profiles of net/http/pprof under
// /debug/pprof/, and the verifier's window under /debug/epochs.
func nodeHandler(store *segstore.Store, interval time.Duration, epochs *engine.EpochStatus) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", segstore.NewHandler(store, segstore.APIConfig{IntervalNS: interval.Nanoseconds()}))
	mux.Handle("/debug/epochs", epochs)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
