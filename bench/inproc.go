package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"vpm/internal/core"
	"vpm/internal/dissem"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
	"vpm/internal/segstore"
	"vpm/internal/seqdetect"
)

// This file wires the single-process pipeline from the layers' public
// functions and times every call from outside:
//
//	recorded observations → EpochDriver.Observers (collect, seal)
//	  → dissem.Server.PublishEpoch (sign) → Bus.CollectSince (verify
//	  signature, decode) → WindowedStore.IngestBundle/SealHOP (and the
//	  StoreBackend beneath it) → RollingVerifier.VerifyReady → Evict.
//
// It mirrors what experiments.RunContinuousOpts does for vpm-node, with
// one epoch in flight and no goroutines of its own, so that wall time
// splits cleanly between stages.

// warmupEpochs run through the pipeline before the clock ever starts:
// pools, arenas, the intern table and the classify cache fill, and the
// window reaches its steady occupancy.
const warmupEpochs = 3

// inprocWorld is one workload's generated world: the deployment under
// test plus the input side (generator, simulator, adversaries).
type inprocWorld struct {
	dep        *core.Deployment
	hops       []receipt.HOPID // collector-bearing HOPs, ascending
	intervalNS int64
	// nextChunk yields the packets sent before limitNS; simulate drives
	// them through the network model into the observers.
	nextChunk func(limitNS int64) []packet.Packet
	simulate  func(pkts []packet.Packet, obs map[receipt.HOPID]netsim.Observer, horizonNS int64) error
	// layout verifies every key on a linear path; keyLayouts, when set,
	// replaces it with per-key route layouts (mesh).
	layout     core.Layout
	keyLayouts map[packet.PathKey][]core.Layout
	// firstHOPs are the HOPs where some route begins: every packet sent
	// is observed at exactly one of them, before any loss.
	firstHOPs map[receipt.HOPID]bool
	wear      map[receipt.HOPID]netsim.Adversary
	seq       *seqdetect.Config
	disk      bool
	// guilty lists the HOP pairs the output check expects blame on, and
	// only on (empty on honest workloads).
	guilty [][2]receipt.HOPID
}

// inprocRun is everything one pass over a workload measured.
type inprocRun struct {
	epochs int   // timed harness iterations with traffic
	sent   int64 // every packet sent, warm-up included
	pkts   int64 // packets sent in timed iterations
	obs    int64
	clocked
	setupNS    int64
	checkNS    int64
	heapMax    uint64
	genNS      int64
	simNS      int64
	inputBytes int64

	// per-iteration samples (steady state only: no warm-up, no
	// terminal), at reference machine speed
	sealToVerdictMS []float64
	serviceMS       []float64
	iterCPUNS       []float64
	// tailWallNS and tailCPUNS cover the one-off sections: the terminal
	// flush and the audit, at reference speed too.
	tailWallNS, tailCPUNS float64

	bundles, receipts int64
	wireBytes         int64
	segmentsMax       int

	keyEpochs, linkChecks int64
	matched, violations   int64
	seqVerdicts           int64
	firstSeqEpoch         int64
	sealedEpochs          int64
	firstHOPPkts          int64
	unclassified          int64

	fingerprint string
	failures    []string // failure and false-positive messages, capped
	attempted   int64
	failed      int64
	// falsePositives counts (key, epoch) verdicts with a violation or a
	// blame on a link the world made honest.
	falsePositives int64
	// falsePositiveEpochs counts the epochs with at least one.
	falsePositiveEpochs int64

	collectAllocs uint64
	verifyAllocs  uint64
	gcPauseMaxMS  float64
	rssPeakMB     float64

	diskBytes int64
	queryUS   []float64

	spans []span
}

// harness is the mutable state of one pass.
type harness struct {
	w   *inprocWorld
	tr  *tracer
	run *inprocRun

	servers map[receipt.HOPID]*dissem.Server
	bus     *dissem.Bus
	reg     dissem.Registry
	win     *core.WindowedStore
	rolling *core.RollingVerifier
	driver  *core.EpochDriver
	observe map[receipt.HOPID]netsim.Observer
	cursors map[receipt.HOPID]uint64
	store   *segstore.Store
	dir     string

	timed  bool                  // false during warm-up: no clock, spans or counters
	blamed map[core.EpochID]uint // guilty sites each epoch's verdicts named
	iter   int32                 // current harness iteration
	cur    int32                 // span the next layer call hangs under
	pubNS  int64                 // publish time inside the current iteration
	// pubAllocs counts the objects PublishEpoch allocated inside the
	// current iteration's replay, so collection's own count excludes them.
	pubAllocs uint64
	clk       *clock
	pending   []core.EpochReport
	fp        hash.Hash
	stored    map[core.EpochID][sha256.Size]byte // report digests, for the read-back check
}

// hopSigner derives a HOP's signing key from the run seed.
func hopSigner(seed uint64, hop receipt.HOPID) *dissem.Signer {
	var k [32]byte
	for i := 0; i < 8; i++ {
		k[i] = byte(seed >> (8 * i))
		k[8+i] = byte(uint64(hop) >> (8 * i))
	}
	k[16] = 0xbe
	return dissem.NewSigner(k)
}

func newHarness(w *inprocWorld, seed uint64, tr *tracer, scratch string) (*harness, error) {
	h := &harness{
		w: w, tr: tr, run: &inprocRun{firstSeqEpoch: -1}, cur: -1,
		servers: make(map[receipt.HOPID]*dissem.Server, len(w.hops)),
		bus:     dissem.NewBus(),
		reg:     make(dissem.Registry, len(w.hops)),
		cursors: make(map[receipt.HOPID]uint64, len(w.hops)),
		fp:      sha256.New(),
		stored:  make(map[core.EpochID][sha256.Size]byte),
		blamed:  make(map[core.EpochID]uint),
	}
	for _, id := range w.hops {
		signer := hopSigner(seed, id)
		srv := dissem.NewServer(id, signer)
		h.bus.Attach(srv)
		h.servers[id] = srv
		h.reg[id] = signer.Public()
	}
	win, err := core.NewWindowedStore(w.hops, 2)
	if err != nil {
		return nil, err
	}
	h.win = win
	if w.disk {
		dir, err := os.MkdirTemp(scratch, "segstore-")
		if err != nil {
			return nil, fmt.Errorf("segstore scratch dir: %w", err)
		}
		h.dir = dir
		store, _, err := segstore.Open(dir, segstore.Options{AutoCompact: true})
		if err != nil {
			return nil, err
		}
		h.store = store
		win.AttachBackend(&timedBackend{inner: segstore.Backend{Store: store}, h: h})
	}
	vc := w.dep.VerifierConfig()
	vc.Workers = 1
	vc.Sequential = w.seq
	h.rolling = core.NewRollingVerifier(w.layout, vc, win, quantile.DefaultQuantiles, 0.95)
	if w.keyLayouts != nil {
		h.rolling.SetKeyLayouts(w.keyLayouts)
	}
	h.driver, err = core.NewEpochDriver(w.dep, w.intervalNS, h.sink)
	if err != nil {
		return nil, err
	}
	h.observe = h.driver.Observers()
	return h, nil
}

// sink is the EpochSink: it runs inside ObserveBatch when a HOP's
// clock crosses an epoch boundary, and publishes the sealed epoch.
func (h *harness) sink(hop receipt.HOPID, epoch core.EpochID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
	if h.w.firstHOPs[hop] {
		for i := range aggs {
			h.run.firstHOPPkts += int64(aggs[i].PktCnt)
		}
	}
	if h.timed {
		h.run.bundles++
		h.run.receipts += int64(len(samples) + len(aggs))
	}
	a0 := h.clk.allocs()
	start := time.Now()
	id := h.tr.begin("dissem.publish", h.cur, h.iter)
	h.servers[hop].PublishEpoch(uint64(epoch), samples, aggs)
	h.tr.end(id)
	h.pubNS += int64(time.Since(start))
	h.pubAllocs += h.clk.allocs() - a0
}

// replay delivers one iteration's recorded observations, HOP by HOP.
func (h *harness) replay(rs *recorders, root int32) {
	for _, hop := range rs.hops {
		for _, batch := range rs.byHOP[hop].batches {
			h.cur = h.tr.begin("core.collect", root, h.iter)
			netsim.Deliver(h.observe[hop], batch)
			h.tr.end(h.cur)
		}
	}
	h.cur = root
}

// drainVerify moves every published bundle into the window, verifies
// what became ready, and evicts — the verifier side of one iteration.
func (h *harness) drainVerify(root int32) error {
	for _, hop := range h.w.hops {
		fetch := h.tr.begin("dissem.fetch", root, h.iter)
		next, err := h.bus.CollectSince(h.reg, hop, h.cursors[hop], func(b *dissem.Bundle) error {
			if h.timed {
				h.run.wireBytes += int64(b.WireSize())
			}
			h.cur = h.tr.begin("core.window.ingest", fetch, h.iter)
			err := h.win.IngestBundle(b)
			if err == nil {
				err = h.win.SealHOP(b.Origin, core.EpochID(b.Epoch))
			}
			h.tr.end(h.cur)
			return err
		})
		h.tr.end(fetch)
		if err != nil {
			return fmt.Errorf("collecting %v: %w", hop, err)
		}
		h.cursors[hop] = next
		if next > 0 {
			h.servers[hop].DropThrough(next - 1)
		}
	}
	a0 := h.clk.allocs()
	h.cur = h.tr.begin("core.verify", root, h.iter)
	reps, err := h.rolling.VerifyReady()
	h.tr.end(h.cur)
	if h.timed {
		h.run.verifyAllocs += h.clk.allocs() - a0
	}
	h.pending = append(h.pending, reps...)
	if err != nil {
		return err
	}
	h.cur = h.tr.begin("core.window.evict", root, h.iter)
	h.win.Evict()
	h.tr.end(h.cur)
	h.cur = root
	return nil
}

// absorb folds the reports of the last iteration into the fingerprint
// and the verdict counters. It runs with the clock stopped: encoding a
// report is check work, not pipeline work.
func (h *harness) absorb() error {
	if n := h.win.Stats().Segments; n > h.run.segmentsMax {
		h.run.segmentsMax = n
	}
	for _, rep := range h.pending {
		enc, err := core.EncodeEpochReport(rep)
		if err != nil {
			return err
		}
		h.fp.Write(enc)
		h.fp.Write([]byte{'\n'})
		if h.store != nil {
			h.stored[rep.Epoch] = sha256.Sum256(enc)
		}
		h.run.sealedEpochs++
		if h.timed {
			// The per-layer ratios divide timed verify work by these.
			h.run.keyEpochs += int64(len(rep.Keys))
			h.run.matched += rep.MatchedSamples()
			h.run.violations += int64(rep.Violations())
			for _, kr := range rep.Keys {
				h.run.linkChecks += int64(len(kr.Links))
			}
		}
		if len(rep.Seq) > 0 {
			h.run.seqVerdicts += int64(len(rep.Seq))
			if h.run.firstSeqEpoch < 0 {
				h.run.firstSeqEpoch = int64(rep.Epoch)
			}
		}
		h.checkReport(rep)
	}
	h.pending = h.pending[:0]
	return nil
}

// steadyNS estimates the timed region robustly against a noisy
// neighbour: the steady iterations count at their median, the one-off
// sections as measured.
func steadyNS(perIterMedian float64, iters int, tailNS float64) float64 {
	return perIterMedian*float64(iters) + tailNS
}

// runInproc makes one pass over an in-process workload: epochs
// iterations of generate → simulate → record (clock stopped), then
// replay → publish → fetch → ingest → verify → evict (clock running),
// then the terminal flush, and on a disk-backed world the audit
// (reopen, read every verdict back). scratch is where a disk-backed
// world keeps its store.
func runInproc(w *inprocWorld, seed uint64, epochs int, tr *tracer, scratch string) (*inprocRun, error) {
	passStart := time.Now()
	// Hand the previous pass's heap back, so every pass faults its
	// memory in afresh and passes compare whatever their order.
	debug.FreeOSMemory()
	h, err := newHarness(w, seed, tr, scratch)
	if err != nil {
		return nil, err
	}
	if h.dir != "" {
		defer os.RemoveAll(h.dir)
	}
	run := h.run
	clk := newClock(&run.clocked, tr != nil)
	h.clk = clk
	recs := newRecorders(w.hops)
	simObs := recs.observers(w.wear)

	iterate := func(e int, horizonNS int64, terminal bool) error {
		// Warm-up iterations make the same calls with the clock, the
		// spans and the counters off.
		h.timed = e >= warmupEpochs
		h.iter = int32(e)
		h.tr = nil
		if h.timed {
			h.tr = tr
		}
		recs.reset()
		var chunk []packet.Packet
		t0 := time.Now()
		if !terminal {
			chunk = w.nextChunk(horizonNS)
		}
		t1 := time.Now()
		if err := w.simulate(chunk, simObs, horizonNS); err != nil {
			return err
		}
		run.sent += int64(len(chunk))
		recs.seal()
		if h.timed {
			run.genNS += int64(t1.Sub(t0))
			run.simNS += int64(time.Since(t1))
			run.pkts += int64(len(chunk))
			run.obs += int64(recs.count())
			if heap := liveHeap(); heap > run.heapMax {
				run.heapMax = heap
			}
			clk.start()
		}
		h.pubNS, h.pubAllocs = 0, 0
		root := h.tr.begin("harness.epoch", -1, h.iter)
		a0 := clk.allocs()
		h.replay(recs, root)
		if terminal {
			// No more traffic: seal every HOP's terminal epoch (the
			// flush that releases keys too sparse to cut an aggregate)
			// and let the last epochs verify without a successor.
			h.cur = h.tr.begin("core.collect", root, h.iter)
			h.driver.Close()
			h.tr.end(h.cur)
			h.win.FinishStream()
		}
		mid := time.Now()
		a1 := clk.allocs()
		err := h.drainVerify(root)
		h.tr.end(root)
		tail := int64(time.Since(mid))
		if h.timed {
			wall, cpu, speed := clk.stop()
			run.collectAllocs += a1 - a0 - h.pubAllocs
			if terminal {
				run.tailWallNS += float64(wall) * speed
				run.tailCPUNS += float64(cpu) * speed
			} else {
				run.sealToVerdictMS = append(run.sealToVerdictMS, float64(h.pubNS+tail)/1e6*speed)
				run.serviceMS = append(run.serviceMS, float64(wall)/1e6*speed)
				run.iterCPUNS = append(run.iterCPUNS, float64(cpu)*speed)
			}
		}
		if err != nil {
			return err
		}
		return h.absorb()
	}

	for e := 0; e < epochs+warmupEpochs; e++ {
		if err := iterate(e, int64(e+1)*w.intervalNS, false); err != nil {
			return nil, err
		}
	}
	run.epochs = epochs
	if err := iterate(epochs+warmupEpochs, int64(1)<<62, true); err != nil {
		return nil, err
	}
	for _, rec := range recs.byHOP {
		run.inputBytes += int64(cap(rec.pkts))*int64(unsafe.Sizeof(packet.Packet{})) + int64(cap(rec.obs))*int64(unsafe.Sizeof(netsim.Observation{}))
	}
	if h.store != nil {
		if err := h.audit(clk); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		run.gcPauseMaxMS = clk.maxPauseMS()
	}
	run.rssPeakMB = peakRSSMB()
	for _, id := range w.hops {
		_, unclassified := w.dep.Collectors[id].Stats()
		run.unclassified += int64(unclassified)
	}
	run.fingerprint = hex.EncodeToString(h.fp.Sum(nil))
	checkStart := time.Now()
	h.checkRun()
	run.checkNS = int64(time.Since(checkStart))
	if tr != nil {
		run.spans = tr.spans
	}
	run.setupNS = int64(time.Since(passStart)) - run.timedNS - run.checkNS
	return run, nil
}

// audit closes the store, reopens it from disk, and reads every
// epoch's verdict back through the query API — the recovery and read
// path that a write-side gain must not starve. Timed as one more
// section.
func (h *harness) audit(clk *clock) error {
	run := h.run
	run.diskBytes = h.store.StoreStats().Bytes
	if err := h.store.Close(); err != nil {
		return err
	}
	clk.start()
	root := h.tr.begin("harness.audit", -1, -1)
	id := h.tr.begin("segstore.recover", root, -1)
	store, stats, err := segstore.Open(h.dir, segstore.Options{AutoCompact: true})
	h.tr.end(id)
	if err != nil {
		clk.stop()
		return fmt.Errorf("reopening store: %w", err)
	}
	defer store.Close()
	api := segstore.NewHandler(store, segstore.APIConfig{IntervalNS: h.w.intervalNS})
	epochs := store.ReportEpochs()
	for _, e := range epochs {
		start := time.Now()
		id := h.tr.begin("segstore.query", root, int32(e))
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/v1/verdicts?from=%d&to=%d", e, e), nil)
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, req)
		h.tr.end(id)
		run.queryUS = append(run.queryUS, float64(time.Since(start))/1e3)
		if rec.Code != http.StatusOK {
			h.fail("audit: epoch %d query returned %d", e, rec.Code)
		}
	}
	h.tr.end(root)
	wall, cpu, speed := clk.stop()
	run.tailWallNS += float64(wall) * speed
	run.tailCPUNS += float64(cpu) * speed

	// Read-back check, off the clock: what the store serves is what
	// the verifier produced.
	if stats.SealedEpochs != int(run.sealedEpochs) || len(epochs) != int(run.sealedEpochs) {
		h.fail("audit: store recovered %d sealed epochs and %d reports, pipeline verified %d",
			stats.SealedEpochs, len(epochs), run.sealedEpochs)
	}
	for _, e := range epochs {
		blob, err := store.Report(e)
		if err != nil {
			return err
		}
		if sha256.Sum256(blob) != h.stored[core.EpochID(e)] {
			h.fail("audit: epoch %d report on disk differs from the verdict produced", e)
		}
	}
	return nil
}

// timedBackend times the durable backend from the core.StoreBackend
// seam: each call becomes a span under whatever layer call is current
// (SealHOP for appends and seals, VerifyReady for reports).
type timedBackend struct {
	inner core.StoreBackend
	h     *harness
}

func (b *timedBackend) AppendEpochHOP(epoch core.EpochID, hop receipt.HOPID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) error {
	id := b.h.tr.begin("segstore.append", b.h.cur, b.h.iter)
	defer b.h.tr.end(id)
	return b.inner.AppendEpochHOP(epoch, hop, samples, aggs)
}

func (b *timedBackend) SealEpoch(epoch core.EpochID) error {
	id := b.h.tr.begin("segstore.seal", b.h.cur, b.h.iter)
	defer b.h.tr.end(id)
	return b.inner.SealEpoch(epoch)
}

func (b *timedBackend) PutReport(epoch core.EpochID, encoded []byte) error {
	id := b.h.tr.begin("segstore.put_report", b.h.cur, b.h.iter)
	defer b.h.tr.end(id)
	return b.inner.PutReport(epoch, encoded)
}

func (b *timedBackend) LastSealed() (core.EpochID, bool) { return b.inner.LastSealed() }

func (b *timedBackend) HasReport(epoch core.EpochID) bool { return b.inner.HasReport(epoch) }

// isTmpfs reports whether dir sits on a RAM-backed filesystem, where
// fsync costs nothing and the segstore numbers flatter the store.
func isTmpfs(dir string) bool {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return false
	}
	const tmpfsMagic, ramfsMagic = 0x01021994, 0x858458f6
	return st.Type == tmpfsMagic || uint32(st.Type) == ramfsMagic
}

// sortedHOPs returns the deployment's collector-bearing HOPs ascending.
func sortedHOPs(dep *core.Deployment) []receipt.HOPID {
	hops := make([]receipt.HOPID, 0, len(dep.Collectors))
	for id := range dep.Collectors {
		hops = append(hops, id)
	}
	sort.Slice(hops, func(i, j int) bool { return hops[i] < hops[j] })
	return hops
}
