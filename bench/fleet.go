package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vpm/internal/core"
	"vpm/internal/dissem"
	"vpm/internal/fleet"
)

// The fleet workload. The fleet layer owns its own simulation and
// pipeline wiring, so there is nothing to replay: the harness runs the
// layer's three public phases — collectors, verifier shards, merge —
// the way cmd/vpm-fleet's processes do, inside one process over
// loopback HTTP, and times each phase from outside.

const (
	fleetShards = 2
	// fleetReps is how many times a pass measures the fleet; see
	// fleetPass.
	fleetReps = 5
)

// fleetRun is what one pass over the fleet workload measured.
type fleetRun struct {
	spec   fleet.Spec
	pkts   int64
	epochs int64 // sealed epochs, Terminal+1
	clocked
	setupNS int64
	heapMax uint64

	buildNS, collectNS, verifyNS, mergeNS int64
	shardNS                               [fleetShards]int64
	requests, bodyBytes                   int64

	keyEpochs, linkChecks, matched, violations int64

	gcPauseMaxMS float64
	rssPeakMB    float64

	merged      []json.RawMessage
	fingerprint string
	spans       []span
}

// countingTransport is the verifier shards' RoundTripper: it counts
// requests and the response-body bytes the shard actually reads —
// the receipt bytes that cross from publishers to verifiers — and
// records one span per request.
type countingTransport struct {
	base     http.RoundTripper
	tr       *tracer
	parent   int32
	requests *atomic.Int64
	bytes    *atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.begin("fleet.http", t.parent, -1)
	resp, err := t.base.RoundTrip(req)
	t.tr.end(id)
	t.requests.Add(1)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: t.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// runFleet makes one pass: build every process's world (set-up), then
// with the clock running the collectors, the verifier shards against
// the finished feeds, and the merge.
func runFleet(spec fleet.Spec, tr *tracer) (*fleetRun, error) {
	passStart := time.Now()
	run := &fleetRun{spec: spec, pkts: spec.TotalSlots()}
	clk := newClock(&run.clocked, tr != nil)
	sampleHeap := func() {
		if heap := liveHeap(); heap > run.heapMax {
			run.heapMax = heap
		}
	}

	// Set-up: each process of a real fleet expands the spec on its own.
	buildStart := time.Now()
	collectors := make([]*fleet.Collector, spec.Collectors)
	urls := make([]string, spec.Collectors)
	servers := make([]*http.Server, spec.Collectors)
	var serving sync.WaitGroup
	defer func() {
		for _, srv := range servers {
			if srv != nil {
				srv.Close()
			}
		}
		serving.Wait()
	}()
	for i := range collectors {
		w, err := spec.Build()
		if err != nil {
			return nil, err
		}
		c, err := fleet.NewCollector(w, i)
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("collector %d listener: %w", i, err)
		}
		srv := &http.Server{Handler: c.Handler(), ReadHeaderTimeout: 10 * time.Second}
		serving.Add(1)
		go func() {
			defer serving.Done()
			srv.Serve(ln) // returns ErrServerClosed on Close
		}()
		collectors[i], urls[i], servers[i] = c, "http://"+ln.Addr().String(), srv
	}
	verifiers := make([]*fleet.Verifier, fleetShards)
	var terminal core.EpochID
	for s := range verifiers {
		w, err := spec.Build()
		if err != nil {
			return nil, err
		}
		terminal = w.Terminal
		v, err := fleet.NewVerifier(w, fleetShards, s, fleet.VerifierOptions{})
		if err != nil {
			return nil, err
		}
		verifiers[s] = v
	}
	run.epochs = int64(terminal) + 1
	run.buildNS = int64(time.Since(buildStart))

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	// Phase 1: collectors simulate, collect, sign and publish.
	sampleHeap()
	clk.start()
	phase := tr.begin("fleet.collect", -1, -1)
	errs := make([]error, len(collectors))
	var wg sync.WaitGroup
	for i, c := range collectors {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := tr.begin("fleet.collector.run", phase, -1)
			errs[i] = c.Run(ctx, fleet.CollectorOptions{})
			tr.end(id)
		}()
	}
	wg.Wait()
	tr.end(phase)
	run.collectNS, _, _ = clk.stop()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Phase 2: verifier shards fetch, filter, ingest, verify, encode.
	sampleHeap()
	clk.start()
	phase = tr.begin("fleet.verify", -1, -1)
	parts := make([]*fleet.ShardOutput, fleetShards)
	errs = make([]error, fleetShards)
	var requests, bodyBytes atomic.Int64
	for s, v := range verifiers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			id := tr.begin("fleet.verifier.run", phase, -1)
			defer func() {
				tr.end(id)
				run.shardNS[s] = int64(time.Since(start))
			}()
			base := &http.Transport{MaxIdleConnsPerHost: 2}
			defer base.CloseIdleConnections()
			client := &http.Client{Transport: &countingTransport{
				base: base, tr: tr, parent: id, requests: &requests, bytes: &bodyBytes,
			}}
			reports, err := v.Run(ctx, urls, fleet.VerifierOptions{Retry: dissem.DefaultRetryPolicy, HTTP: client})
			if err != nil {
				errs[s] = err
				return
			}
			parts[s], errs[s] = fleet.NewShardOutput(fleetShards, s, reports)
		}()
	}
	wg.Wait()
	tr.end(phase)
	run.verifyNS, _, _ = clk.stop()
	run.requests, run.bodyBytes = requests.Load(), bodyBytes.Load()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Phase 3: merge the shards' parts into one verdict stream.
	sampleHeap()
	clk.start()
	id := tr.begin("fleet.merge", -1, -1)
	merged, err := fleet.MergeShardOutputs(parts)
	tr.end(id)
	run.mergeNS, _, _ = clk.stop()
	if err != nil {
		return nil, err
	}
	sampleHeap()
	run.merged = merged
	run.fingerprint = fleet.Fingerprint(merged)
	if tr != nil {
		run.gcPauseMaxMS = clk.maxPauseMS()
		run.spans = tr.spans
	}
	run.rssPeakMB = peakRSSMB()
	run.setupNS = int64(time.Since(passStart)) - run.timedNS
	return run, nil
}

// fleetCheck counts the merged verdicts and compares their
// fingerprint with the single-process reference on a fresh world.
// Returns attempted and the failure messages.
func fleetCheck(run *fleetRun, withReference bool) (attempted int64, failures []string, err error) {
	for _, raw := range run.merged {
		rep, err := core.DecodeEpochReport(raw)
		if err != nil {
			return 0, nil, err
		}
		attempted += int64(max(len(rep.Keys), 1))
		run.keyEpochs += int64(len(rep.Keys))
		run.matched += rep.MatchedSamples()
		for _, kr := range rep.Keys {
			run.linkChecks += int64(len(kr.Links))
		}
		if n := rep.Violations(); n > 0 {
			run.violations += int64(n)
			failures = append(failures, fmt.Sprintf("epoch %d: %d violations in an honest fleet", rep.Epoch, n))
		}
	}
	if int64(len(run.merged)) != run.epochs {
		failures = append(failures, fmt.Sprintf("merged %d epochs, fleet sealed %d", len(run.merged), run.epochs))
	}
	if !withReference {
		return attempted, failures, nil
	}
	w, err := run.spec.Build()
	if err != nil {
		return 0, nil, err
	}
	ref, err := fleet.RunReference(w, 0)
	if err != nil {
		return 0, nil, err
	}
	enc, err := fleet.EncodeReports(ref)
	if err != nil {
		return 0, nil, err
	}
	if want := fleet.Fingerprint(enc); want != run.fingerprint {
		failures = append(failures, fmt.Sprintf("merged fingerprint %s, single-process reference %s", run.fingerprint, want))
	}
	return attempted, failures, nil
}
