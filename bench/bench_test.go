package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"vpm/internal/core"
	"vpm/internal/fleet"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
)

var closToy = closSize{keys: 256, ratePPS: 40_000}

func TestPopGenDeterministic(t *testing.T) {
	keys := netsim.WideKeys(64)
	draw := func(seed uint64) []packet.Packet {
		g := newPopGen(seed, keys, closZipfS, 100_000)
		var all []packet.Packet
		for e := int64(1); e <= 3; e++ {
			all = append(all, g.nextChunk(e*10_000_000)...)
		}
		return all
	}
	a, b := draw(7), draw(7)
	if len(a) < 2000 || !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different streams (%d vs %d packets)", len(a), len(b))
	}
	if c := draw(8); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same stream")
	}
	perKey := make(map[[4]byte]int)
	seen := make(map[packet.Packet]bool)
	for i := range a {
		if i > 0 && a[i].SentAt <= a[i-1].SentAt {
			t.Fatalf("packet %d sent at %d, not after %d", i, a[i].SentAt, a[i-1].SentAt)
		}
		perKey[a[i].Src]++
		hdr := a[i]
		hdr.SentAt = 0
		if seen[hdr] {
			t.Fatalf("packet %d repeats an earlier header", i)
		}
		seen[hdr] = true
	}
	if hot, cold := perKey[keys[0].Src.Addr], perKey[keys[63].Src.Addr]; hot < 8*cold {
		t.Fatalf("rank 1 sent %d packets, rank 64 sent %d: no Zipf skew", hot, cold)
	}
}

// logObserver records every delivery, batch boundaries included.
type logObserver struct {
	pkts    []packet.Packet
	digests []uint64
	times   []int64
	batches []int
}

func (l *logObserver) Observe(pkt *packet.Packet, digest uint64, tNS int64) {
	l.pkts = append(l.pkts, *pkt)
	l.digests = append(l.digests, digest)
	l.times = append(l.times, tNS)
}

func (l *logObserver) ObserveBatch(batch []netsim.Observation) {
	l.batches = append(l.batches, len(batch))
	for _, o := range batch {
		l.Observe(o.Pkt, o.Digest, o.TimeNS)
	}
}

// TestReplayEqualsDelivered drives two identical simulations, one
// straight into logging observers and one through record-and-replay,
// and requires the same observations in the same batches at every HOP.
func TestReplayEqualsDelivered(t *testing.T) {
	const segments, intervalNS = 3, 50_000_000
	type sim struct {
		w   *inprocWorld
		log map[receipt.HOPID]*logObserver
	}
	build := func() sim {
		w, err := closWorld(3, true, closToy)
		if err != nil {
			t.Fatal(err)
		}
		s := sim{w: w, log: make(map[receipt.HOPID]*logObserver)}
		for _, h := range w.hops {
			s.log[h] = &logObserver{}
		}
		return s
	}
	direct, replayed := build(), build()

	directObs := make(map[receipt.HOPID]netsim.Observer)
	for h, l := range direct.log {
		directObs[h] = netsim.Wear(h, direct.w.wear[h], l)
	}
	recs := newRecorders(replayed.w.hops)
	recObs := recs.observers(replayed.w.wear)
	for e := int64(1); e <= segments; e++ {
		if err := direct.w.simulate(direct.w.nextChunk(e*intervalNS), directObs, e*intervalNS); err != nil {
			t.Fatal(err)
		}
		recs.reset()
		if err := replayed.w.simulate(replayed.w.nextChunk(e*intervalNS), recObs, e*intervalNS); err != nil {
			t.Fatal(err)
		}
		recs.seal()
		for _, h := range recs.hops {
			for _, batch := range recs.byHOP[h].batches {
				netsim.Deliver(replayed.log[h], batch)
			}
		}
	}
	total := 0
	for _, h := range direct.w.hops {
		if !reflect.DeepEqual(direct.log[h], replayed.log[h]) {
			t.Fatalf("%v: replayed observations differ from the delivered ones (%d vs %d)",
				h, len(replayed.log[h].times), len(direct.log[h].times))
		}
		total += len(direct.log[h].times)
	}
	if total == 0 {
		t.Fatal("nothing was observed")
	}
}

func TestTailPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n     int
		p     float64
		value float64
	}{
		{99, 0, 0}, // fewer than ten samples beyond any candidate
		{100, 0.90, 90},
		{199, 0.90, 180},
		{200, 0.95, 190},
		{1000, 0.99, 990},
		{10000, 0.999, 9990},
	} {
		p, value, ok := tailPercentile(ramp(c.n))
		if ok != (c.p != 0) || p != c.p || value != c.value {
			t.Errorf("n=%d: got p%v=%v ok=%v, want p%v=%v", c.n, p*100, value, ok, c.p*100, c.value)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("two-sample quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: concurrent shards
		{Name: "c", Start: 90, End: 120, Parent: 0}, // outlives the parent: clipped
		{Name: "grandchild", Start: 12, End: 18, Parent: 1},
	}
	want := []int64{100 - (50 - 10) - (100 - 90), 20 - 6, 30, 30, 6}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	tot := layerTotals(spans, selfTimes(spans))
	if tot["parent"].selfNS != 50 || tot["a"].n != 1 {
		t.Fatalf("layer totals %+v", tot)
	}
	// Everything outside the root, plus the harness's own self time.
	spans[0].Name = "harness.epoch"
	if got := unattributedNS(130, spans, selfTimes(spans)); got != 30+50 {
		t.Fatalf("unattributed %d, want 80", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", -1, 0); id != -1 {
		t.Fatalf("nil tracer opened span %d", id)
	}
	tr.end(-1)
}

func TestCountingTransport(t *testing.T) {
	body := strings.Repeat("r", 70_000)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	defer srv.Close()
	var requests, bytes atomic.Int64
	tr := newTracer()
	parent := tr.begin("fleet.verifier.run", -1, -1)
	client := &http.Client{Transport: &countingTransport{
		base: http.DefaultTransport, tr: tr, parent: parent, requests: &requests, bytes: &bytes,
	}}
	for i := 0; i < 3; i++ {
		resp, err := client.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(got) != body {
			t.Fatalf("body altered: %d bytes, err %v", len(got), err)
		}
	}
	tr.end(parent)
	if requests.Load() != 3 || bytes.Load() != int64(3*len(body)) {
		t.Fatalf("counted %d requests, %d bytes; want 3, %d", requests.Load(), bytes.Load(), 3*len(body))
	}
	if tot := layerTotals(tr.spans, selfTimes(tr.spans)); tot["fleet.http"].n != 3 {
		t.Fatalf("recorded %d request spans, want 3", tot["fleet.http"].n)
	}
	for _, s := range tr.spans[1:] {
		if s.Parent != parent || s.End < s.Start {
			t.Fatalf("bad request span %+v", s)
		}
	}
}

// fakeBackend records the calls the window makes.
type fakeBackend struct {
	calls []string
	err   error
}

func (f *fakeBackend) AppendEpochHOP(e core.EpochID, h receipt.HOPID, s []receipt.SampleReceipt, a []receipt.AggReceipt) error {
	f.calls = append(f.calls, fmt.Sprintf("append %d %v %d %d", e, h, len(s), len(a)))
	return f.err
}
func (f *fakeBackend) SealEpoch(e core.EpochID) error {
	f.calls = append(f.calls, fmt.Sprintf("seal %d", e))
	return f.err
}
func (f *fakeBackend) PutReport(e core.EpochID, data []byte) error {
	f.calls = append(f.calls, fmt.Sprintf("report %d %s", e, data))
	return f.err
}
func (f *fakeBackend) LastSealed() (core.EpochID, bool) { return 41, true }
func (f *fakeBackend) HasReport(e core.EpochID) bool    { return e == 41 }

func TestTimedBackend(t *testing.T) {
	inner := &fakeBackend{}
	h := &harness{tr: newTracer(), iter: 5}
	h.cur = h.tr.begin("core.window.ingest", -1, 5)
	b := &timedBackend{inner: inner, h: h}
	if err := b.AppendEpochHOP(7, 3, make([]receipt.SampleReceipt, 2), nil); err != nil {
		t.Fatal(err)
	}
	if err := b.SealEpoch(7); err != nil {
		t.Fatal(err)
	}
	if err := b.PutReport(7, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if e, ok := b.LastSealed(); e != 41 || !ok || !b.HasReport(41) || b.HasReport(7) {
		t.Fatal("read-side calls not forwarded")
	}
	want := []string{"append 7 HOP3 2 0", "seal 7", "report 7 v"}
	if !reflect.DeepEqual(inner.calls, want) {
		t.Fatalf("forwarded %v, want %v", inner.calls, want)
	}
	var names []string
	for _, s := range h.tr.spans[1:] {
		if s.Parent != h.cur || s.Epoch != 5 || s.End < s.Start {
			t.Fatalf("bad backend span %+v", s)
		}
		names = append(names, s.Name)
	}
	if want := []string{"segstore.append", "segstore.seal", "segstore.put_report"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("spans %v, want %v", names, want)
	}
	inner.err = errors.New("disk full")
	if err := b.SealEpoch(8); !errors.Is(err, inner.err) {
		t.Fatalf("backend error not passed up: %v", err)
	}
	// Untraced: same forwarding, no spans, no clock.
	h.tr = nil
	inner.err = nil
	if err := b.SealEpoch(9); err != nil {
		t.Fatal(err)
	}
}

// wantPositive requires a clean outcome in which every named metric
// measured something.
func wantPositive(t *testing.T, workload string, o *outcome, names []string) {
	t.Helper()
	if o.failed != 0 || o.attempted < 1 {
		t.Fatalf("%s: attempted %d, failed %d: %v", workload, o.attempted, o.failed, o.failures)
	}
	for _, name := range names {
		if v, ok := o.values[name]; !ok || v <= 0 {
			t.Errorf("%s: metric %s = %v, want it measured", workload, name, v)
		}
	}
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

// everyInprocLayer is what any in-process workload must measure.
var everyInprocLayer = []string{
	"trace.gen_ns_per_pkt", "netsim.sim_ns_per_obs", "netsim.obs",
	"core.collect.ns_per_obs", "core.collect.busy_s",
	"dissem.publish_us_per_bundle", "dissem.fetch_us_per_bundle", "dissem.bundles", "dissem.wire_bytes", "dissem.receipts_per_bundle",
	"core.window.ingest_us_per_bundle", "core.window.receipts", "core.window.segments_max",
	"core.verify.us_per_key_epoch", "core.verify.us_per_link_check", "core.verify.key_epochs", "core.verify.matched_samples",
	"runtime.allocs_per_pkt", "runtime.rss_peak_mb", "harness.epoch_service_ms_p50", "harness.epochs", "harness.input_mb",
}

// toyPass runs an in-process world for a handful of epochs, untraced
// then traced: both must pass the output check with the same verdicts,
// every end-to-end metric and the named layer metrics must be
// measured, and the spans must cover the timed wall.
func toyPass(t *testing.T, workload string, build func() (*inprocWorld, error), layers ...string) {
	t.Helper()
	var fingerprints []string
	for _, tr := range []*tracer{nil, newTracer()} {
		w, err := build()
		if err != nil {
			t.Fatal(err)
		}
		run, err := runInproc(w, 11, 6, tr, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		o := &outcome{attempted: run.attempted, failed: run.failed, failures: run.failures}
		if tr == nil {
			o.values = run.endToEnd()
			wantPositive(t, workload, o, names(endToEnd))
		} else {
			o.values = run.layers()
			wantPositive(t, workload, o, append(layers, everyInprocLayer...))
			if f := o.values["harness.unattributed_frac"]; f < 0 || f > 0.05 {
				t.Errorf("%s: %.1f%% of the timed wall is in no layer span", workload, 100*f)
			}
		}
		fingerprints = append(fingerprints, run.fingerprint)
	}
	if fingerprints[0] != fingerprints[1] {
		t.Fatalf("%s: traced pass produced different verdicts", workload)
	}
}

func TestFig1Toy(t *testing.T) {
	toyPass(t, "fig1-stream", func() (*inprocWorld, error) { return fig1World(11) })
}

func TestClosZipfToy(t *testing.T) {
	toyPass(t, "clos-zipf", func() (*inprocWorld, error) { return closWorld(11, false, closToy) },
		"core.verify.terminal_flush_s")
}

func TestClosFaultyAuditToy(t *testing.T) {
	toyPass(t, "clos-faulty-audit", func() (*inprocWorld, error) { return closWorld(11, true, closToy) },
		"core.verify.violations", "seqdetect.verdicts",
		"segstore.append_us_per_hop_epoch", "segstore.seal_ms_per_epoch", "segstore.put_report_ms_per_epoch",
		"segstore.busy_s", "segstore.bytes_on_disk", "segstore.recover_ms", "segstore.query_us_p50")
}

// TestFaultyCheckCatchesMisplacedBlame tells the harness the faulty
// world is honest: the same verdicts must then fail the check.
func TestFaultyCheckCatchesMisplacedBlame(t *testing.T) {
	w, err := closWorld(11, true, closToy)
	if err != nil {
		t.Fatal(err)
	}
	w.guilty = nil
	run, err := runInproc(w, 11, 6, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if run.falsePositives == 0 || run.failed < run.falsePositives {
		t.Fatalf("violations on a link the check holds honest went unnoticed: %d false positives, %d failed", run.falsePositives, run.failed)
	}
}

func TestFleetToy(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet over loopback HTTP")
	}
	spec := fleet.Spec{
		Seed: 11, Domains: 12, ExtraLinks: 4, Keys: 192, Epochs: 3,
		IntervalNS: 100_000_000, RatePPS: 2 * 192 / 0.3, Collectors: 2, Workers: 1,
	}
	plain, err := fleetPass(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	wantPositive(t, "fleet-http", plain, names(endToEnd))
	spanned, err := fleetPass(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	wantPositive(t, "fleet-http", spanned, []string{
		"dissem.wire_bytes", "core.verify.key_epochs", "core.verify.link_checks",
		"fleet.build_s", "fleet.collect_s", "fleet.verify_s", "fleet.verify_us_per_key_epoch", "fleet.shard_skew",
		"fleet.http_requests", "fleet.http_body_bytes", "fleet.merge_s", "fleet.merge_us_per_key_epoch",
	})
	if plain.fingerprint != spanned.fingerprint {
		t.Fatal("fleet-http: traced pass produced different verdicts")
	}
}

// TestBenchmarkJSONMatchesCode keeps the contract file and the code's
// vocabulary in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		contract
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v in BENCHMARK.json, %q (%s) in code", i, c.Workloads[i], w.name, w.why)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) || len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, code %d+%d", len(c.EndToEnd), len(c.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if m := c.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in code", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := c.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in code", i, m, d)
		}
	}
	if c.RunSeconds != defaultSeconds || !reflect.DeepEqual(c.Paths, []string{"bench"}) ||
		!reflect.DeepEqual(c.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("run_seconds %d, paths %v, command %v", c.RunSeconds, c.Paths, c.Command)
	}
}
