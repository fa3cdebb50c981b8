package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"vpm/internal/dissem"
	"vpm/internal/packet"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
	"vpm/internal/seqdetect"
)

// ErrEvictedEpoch reports receipts arriving for an epoch the window
// already garbage-collected — in an honest pipeline a lifecycle
// violation, under attack the signature of a very stale replay.
var ErrEvictedEpoch = errors.New("core: epoch already evicted")

// StaleSealError reports a bundle arriving for a (HOP, epoch) that HOP
// already sealed: the publisher promised no further receipts for the
// interval, so a second bundle is a replayed or duplicated epoch — the
// evidence class EvEpochReplay, implicating the origin alone.
type StaleSealError struct {
	HOP   receipt.HOPID
	Epoch EpochID
}

// Error implements error.
func (e *StaleSealError) Error() string {
	return fmt.Sprintf("core: %v already sealed epoch %d; late bundle is a stale replay", e.HOP, e.Epoch)
}

// WindowedStore is the continuous-operation receipt store: one segment
// of receipts per epoch, so the pipeline can verify epoch N (a sealed,
// immutable segment) while epoch N+1 is still ingesting into its own
// segment, and garbage-collect old epochs once they are verified and
// outside the retention window.
//
// Lifecycle per (HOP, epoch): receipts arrive exactly once, when the
// HOP seals the epoch (EpochSink → IngestSealed), or incrementally
// from epoch-tagged dissemination bundles (IngestBundle) followed by
// SealHOP. An epoch becomes Ready for verification when every expected
// HOP has sealed it AND its successor epoch is sealed too (or
// FinishStream declared the stream over): verification reads a ±1
// epoch evidence window around the target, because a packet observed
// upstream at the end of epoch N legitimately reaches the downstream
// HOP in its epoch N+1 — boundary spill is propagation delay, not a
// lie. MarkVerified records the outcome and Evict drops epochs that
// are verified, no longer needed as a neighbor's evidence, and older
// than newest-sealed − retention. Eviction never drops an unverified
// epoch, regardless of age — receipts are evidence, and evidence is
// only discarded after judgment.
//
// Concurrency: all methods are safe for concurrent use. Ingest into
// epoch N+1 may run concurrently with verification of epoch N−1:
// verification reads the indices a view handed it without the store's
// lock, and those never change once built — a sealed (HOP, epoch)
// receives no further receipts, and a segment some HOP has yet to seal
// is viewed through a private copy.
type WindowedStore struct {
	mu        sync.Mutex
	hops      []receipt.HOPID
	retention int
	segs      map[EpochID]*epochSegment
	minEpoch  EpochID // epochs below this were evicted
	maxSealed EpochID // newest fully sealed epoch
	hasSealed bool
	finished  bool // stream over: no further epochs will seal
	evicted   uint64
	// indexBuilds counts (HOP, epoch) indexings, shared or private.
	indexBuilds uint64
	// Durable persistence (see backend.go). backend mirrors seals to
	// stable storage; durable/hasDurable is the recovery watermark
	// captured at attach; recovered counts epochs whose verification
	// was skipped because a durable verdict report already existed.
	backend    StoreBackend
	durable    EpochID
	hasDurable bool
	recovered  uint64
}

// epochSegment is one epoch's receipts plus its lifecycle state. A
// HOP's receipts wait in pending, as they arrived, until the HOP seals
// the epoch; the seal makes them final, finds their key runs (see
// delivery.findRuns) and moves them, untouched, to sealed. Once
// every expected HOP has sealed, the first view that holds the segment
// takes sealed over into the segment's leaf and builds it — on the
// verifying workers (see RollingVerifier.VerifyEpoch) — and every later
// view, of this epoch or a neighbour, shares it. The store's mutex
// guards every field; the leaf's contents belong to its builder until
// it is built.
type epochSegment struct {
	pending map[receipt.HOPID]delivery
	// sealed holds the expected HOPs' deliveries in the order they
	// sealed, until the leaf takes them.
	sealed   []delivery
	leaf     *epochLeaf // nil until a view claims the fully sealed segment
	sealedBy map[receipt.HOPID]bool
	verified bool
}

func newEpochSegment(hops int) *epochSegment {
	return &epochSegment{
		pending:  make(map[receipt.HOPID]delivery),
		sealed:   make([]delivery, 0, hops),
		sealedBy: make(map[receipt.HOPID]bool),
	}
}

// add appends receipts for one HOP. The first delivery — with one
// bundle per sealed epoch, the only one — is referenced, not copied.
func (s *epochSegment) add(hop receipt.HOPID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
	p, ok := s.pending[hop]
	if !ok {
		p.hop = hop
		p.samples = samples[:len(samples):len(samples)]
		p.aggs = aggs[:len(aggs):len(aggs)]
	} else {
		p.samples = append(p.samples, samples...)
		p.aggs = append(p.aggs, aggs...)
	}
	s.pending[hop] = p
}

// NewWindowedStore builds a windowed store expecting receipts from the
// given HOPs (an epoch seals when all of them sealed it; a HOP listed
// twice is expected once), keeping at most retention verified epochs
// behind the newest sealed one.
func NewWindowedStore(hops []receipt.HOPID, retention int) (*WindowedStore, error) {
	if retention < 1 {
		return nil, fmt.Errorf("core: retention %d epochs is below the 1-epoch minimum", retention)
	}
	if len(hops) == 0 {
		return nil, fmt.Errorf("core: windowed store needs at least one expected HOP")
	}
	sorted := append([]receipt.HOPID(nil), hops...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return &WindowedStore{
		hops:      slices.Compact(sorted),
		retention: retention,
		segs:      make(map[EpochID]*epochSegment),
	}, nil
}

// segmentLocked returns (creating if needed) the segment for epoch.
// The store mutex must be held.
func (w *WindowedStore) segmentLocked(epoch EpochID) (*epochSegment, error) {
	if seg, ok := w.segs[epoch]; ok {
		return seg, nil
	}
	// Only reached for epochs with no live segment: refuse to open a
	// fresh one behind the eviction horizon.
	if epoch < w.minEpoch {
		return nil, fmt.Errorf("%w: epoch %d (window starts at %d)", ErrEvictedEpoch, epoch, w.minEpoch)
	}
	seg := newEpochSegment(len(w.hops))
	w.segs[epoch] = seg
	return seg, nil
}

// Sink adapts the store to the EpochSink shape, for wiring an
// EpochDriver straight into the window without a dissemination layer
// in between. The only possible ingest error — sealing receipts into
// an already-evicted epoch, a lifecycle violation that cannot occur
// when eviction follows verification — panics loudly rather than
// dropping measurements silently.
func (w *WindowedStore) Sink() EpochSink {
	return func(hop receipt.HOPID, epoch EpochID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
		if err := w.IngestSealed(hop, epoch, samples, aggs); err != nil {
			panic(err)
		}
	}
}

// IngestSealed files one HOP's complete epoch — the EpochSink shape:
// receipts are added to the epoch's segment and the HOP is marked as
// having sealed it. The slices are the store's from here on.
func (w *WindowedStore) IngestSealed(hop receipt.HOPID, epoch EpochID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) error {
	if err := w.ingest(hop, epoch, samples, aggs); err != nil {
		return err
	}
	return w.SealHOP(hop, epoch)
}

// IngestBundle files one epoch-tagged dissemination bundle into its
// epoch's segment. Pair with SealHOP once a HOP's epoch is known to
// be complete (with one bundle per sealed epoch, that is on receipt of
// the bundle itself). A bundle for a (HOP, epoch) the HOP already
// sealed is refused with a StaleSealError instead of silently mutating
// judged evidence — the detection point for replayed or duplicated
// epochs; a bundle for an evicted epoch is refused with
// ErrEvictedEpoch. The bundle's receipt slices are the store's from
// here on.
func (w *WindowedStore) IngestBundle(b *dissem.Bundle) error {
	return w.ingest(b.Origin, EpochID(b.Epoch), b.Samples, b.Aggs)
}

// ingest adds one delivery to hop's pending receipts for epoch.
func (w *WindowedStore) ingest(hop receipt.HOPID, epoch EpochID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	seg, err := w.segmentLocked(epoch)
	if err != nil {
		return err
	}
	if seg.sealedBy[hop] {
		return &StaleSealError{HOP: hop, Epoch: epoch}
	}
	seg.add(hop, samples, aggs)
	return nil
}

// expects reports whether hop is one of the HOPs an epoch waits for.
func (w *WindowedStore) expects(hop receipt.HOPID) bool {
	_, ok := slices.BinarySearch(w.hops, hop)
	return ok
}

// SealHOP records that hop has no further receipts for epoch, and
// files what it delivered, in seal order, for the epoch's leaf (an
// expected HOP's — nothing ever reads another's) with its key runs,
// found here once for every builder. Nothing is indexed here: the
// first view of the fully sealed epoch builds its leaf. When the last
// expected HOP seals an epoch it counts toward readiness. With
// a durable backend attached, the HOP's now-final receipt set is
// mirrored to it first, and the epoch's seal is handed to it when the
// last HOP seals — unless the epoch predates the recovery watermark
// (already durable; re-persisting would double-count). Receipts whose
// persist failed stay pending, and views index them on demand.
func (w *WindowedStore) SealHOP(hop receipt.HOPID, epoch EpochID) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	seg, err := w.segmentLocked(epoch)
	if err != nil {
		return err
	}
	first := !seg.sealedBy[hop]
	seg.sealedBy[hop] = true
	persist := first && w.backend != nil && !w.durableSealLocked(epoch)
	if first {
		p := seg.pending[hop]
		if persist {
			if err := w.backend.AppendEpochHOP(epoch, hop, p.samples, p.aggs); err != nil {
				return fmt.Errorf("core: persisting %v epoch %d: %w", hop, epoch, err)
			}
		}
		delete(seg.pending, hop)
		if w.expects(hop) {
			p.hop = hop
			p.findRuns()
			seg.sealed = append(seg.sealed, p)
		}
	}
	if w.sealedLocked(seg) {
		if !w.hasSealed || epoch > w.maxSealed {
			w.maxSealed, w.hasSealed = epoch, true
		}
		if persist {
			if err := w.backend.SealEpoch(epoch); err != nil {
				return fmt.Errorf("core: durably sealing epoch %d: %w", epoch, err)
			}
		}
	}
	return nil
}

// FinishStream declares that no further epochs will seal (clean
// shutdown), which releases the final epoch for verification: mid-
// stream, epoch N only becomes Ready once N+1 is sealed, because N+1
// holds the downstream half of N's boundary-spill evidence.
func (w *WindowedStore) FinishStream() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.finished = true
}

// sealedLocked reports whether every expected HOP sealed the segment.
func (w *WindowedStore) sealedLocked(seg *epochSegment) bool {
	for _, h := range w.hops {
		if !seg.sealedBy[h] {
			return false
		}
	}
	return true
}

// Ready returns the epochs eligible for verification, in ascending
// order: sealed by every HOP, not yet verified, and with their
// successor epoch sealed too (or the stream finished) so the ±1
// evidence window is complete.
func (w *WindowedStore) Ready() []EpochID {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []EpochID
	for e, seg := range w.segs {
		if seg.verified || !w.sealedLocked(seg) {
			continue
		}
		if next, ok := w.segs[e+1]; ok && w.sealedLocked(next) {
			out = append(out, e)
		} else if w.finished {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MissingSeals returns the expected HOPs that have not sealed the
// given epoch, in HOP order — the blocking set behind a never-Ready
// epoch. Under bundle withholding this names the withholder: every
// other HOP sealed, so the single unsealed origin is the narrowest
// implicated set.
func (w *WindowedStore) MissingSeals(epoch EpochID) []receipt.HOPID {
	w.mu.Lock()
	defer w.mu.Unlock()
	seg, ok := w.segs[epoch]
	var out []receipt.HOPID
	for _, h := range w.hops {
		if !ok || !seg.sealedBy[h] {
			out = append(out, h)
		}
	}
	return out
}

// UnverifiedEpochs returns the held epochs that have not been
// verified, ascending — after FinishStream and a final VerifyReady
// sweep these are exactly the epochs something (a withheld bundle, a
// missing seal) left permanently unjudgeable.
func (w *WindowedStore) UnverifiedEpochs() []EpochID {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []EpochID
	for e, seg := range w.segs {
		if !seg.verified {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// epochView is the evidence one target epoch is judged on: the leaves
// of the epochs before it, of itself and after it that the store
// holds, oldest first. The neighbours supply the boundary-spill
// evidence — receipts a HOP sealed one interval away for packets that
// crossed the target interval's edges in flight.
type epochView struct {
	leaves [3]*epochLeaf
	n      int
	// target is the position of the target epoch's own leaf: the
	// records a per-epoch report vouches for.
	target int
	// tailComplete reports that nothing can exist beyond the view's
	// upper edge (see tailCompleteLocked).
	tailComplete bool
	// claimed are the leaves this view took over unbuilt, nc of them:
	// whoever took the view builds them before reading it.
	claimed [3]*epochLeaf
	nc      int
}

// hopWindow is one HOP's window within a resolved key.
type hopWindow struct {
	hop receipt.HOPID
	win window
}

// resolve appends to wins the window of every HOP that reported key in
// any leaf of the view — one map lookup per leaf for the whole key.
// Windows spanning several leaves get their aggregates concatenated
// into *aggs, a scratch slab the caller keeps between keys.
func (v *epochView) resolve(key packet.PathKey, wins []hopWindow, aggs *[]receipt.AggReceipt) []hopWindow {
	for li := 0; li < v.n; li++ {
	hops:
		for pi := v.leaves[li].get(key); pi != nil; pi = pi.next {
			for i := range wins {
				if wins[i].hop == pi.hop {
					w := &wins[i].win
					w.leaves[w.n] = pi
					w.n++
					continue hops
				}
			}
			wins = append(wins, hopWindow{hop: pi.hop, win: soleWindow(pi)})
		}
	}
	// Size the slab first: growing it mid-way would strand the windows
	// already cut from it.
	total := 0
	for i := range wins {
		if w := &wins[i].win; w.n > 1 {
			for l := 0; l < w.n; l++ {
				total += len(w.leaves[l].aggs)
			}
		}
	}
	slab := slices.Grow((*aggs)[:0], total)
	for i := range wins {
		w := &wins[i].win
		if w.n <= 1 {
			continue
		}
		from := len(slab)
		for l := 0; l < w.n; l++ {
			slab = append(slab, w.leaves[l].aggs...)
		}
		w.aggs = slab[from:len(slab):len(slab)]
	}
	*aggs = slab
	return wins
}

// view returns the evidence view of one target epoch: the target
// segment's leaf plus its immediate neighbours' (when they exist). No
// receipt is touched under the lock but a partly sealed segment's: a
// fully sealed segment hands out its leaf, claimed by the first view
// that holds it and built by whoever took that view (v.claimed).
func (w *WindowedStore) view(epoch EpochID) (*epochView, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.segs[epoch]; !ok {
		return nil, fmt.Errorf("core: no segment for epoch %d", epoch)
	}
	v := &epochView{tailComplete: w.tailCompleteLocked(epoch)}
	first := epoch
	if epoch > 0 {
		first = epoch - 1
	}
	for e := first; e <= epoch+1; e++ {
		seg, ok := w.segs[e]
		if !ok {
			continue
		}
		if e == epoch {
			v.target = v.n
		}
		v.leaves[v.n] = w.leafLocked(seg, v)
		v.n++
	}
	return v, nil
}

// leafLocked returns seg's receipts as a leaf. Once every expected HOP
// has sealed that is the segment's own leaf, shared and never written
// once built; the first view to ask claims it unbuilt. Until then it is
// a private copy, built here from the sealed HOPs' receipts in seal
// order, then the pending ones in HOP order — built per view and not
// kept, so a bundle that arrives after one view was taken is in the
// next.
func (w *WindowedStore) leafLocked(seg *epochSegment, v *epochView) *epochLeaf {
	if seg.leaf != nil {
		return seg.leaf
	}
	l := &epochLeaf{from: seg.sealed}
	l.done.Add(1)
	w.indexBuilds += uint64(len(l.from))
	if len(seg.sealed) == len(w.hops) {
		seg.leaf, seg.sealed = l, nil
		v.claimed[v.nc] = l
		v.nc++
		return l
	}
	l.from = slices.Clip(l.from)
	for _, hop := range w.hops {
		if p, ok := seg.pending[hop]; ok {
			l.from = append(l.from, p)
			w.indexBuilds++
		}
	}
	l.build(nil)
	return l
}

// build builds the leaves the view claimed, on the calling goroutine
// working in *sc, then waits for the rest.
func (v *epochView) build(sc *indexScratch) {
	for _, l := range v.claimed[:v.nc] {
		l.build(sc)
	}
	v.nc = 0
	v.wait()
}

// wait returns once every leaf of the view it did not claim is built —
// at once, unless another view claimed one and is building it still.
func (v *epochView) wait() {
	for _, l := range v.leaves[:v.n] {
		if !v.claims(l) {
			l.done.Wait()
		}
	}
}

// claims reports whether the view claimed l.
func (v *epochView) claims(l *epochLeaf) bool {
	for _, c := range v.claimed[:v.nc] {
		if c == l {
			return true
		}
	}
	return false
}

// tailCompleteLocked reports whether nothing can exist beyond epoch+1:
// the stream has finished, epoch+1 reaches the newest sealed epoch, and
// no segment — sealed or not — holds receipts past the evidence window.
// The last clause matters under bundle withholding: unsealed segments
// beyond the window mean some HOPs' aggregate streams continue past it
// while the withholder's stops, and comparing the half-open tail
// region would smear the withholder's blame across every honest link.
func (w *WindowedStore) tailCompleteLocked(epoch EpochID) bool {
	if !w.finished || !w.hasSealed || epoch+1 < w.maxSealed {
		return false
	}
	for e := range w.segs {
		if e > epoch+1 {
			return false
		}
	}
	return true
}

// MarkVerified records that epoch's segment has been verified, making
// it eligible for eviction once it ages out and is no longer needed as
// a neighbor's evidence.
func (w *WindowedStore) MarkVerified(epoch EpochID) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	seg, ok := w.segs[epoch]
	if !ok {
		return fmt.Errorf("core: cannot mark epoch %d verified: no such segment", epoch)
	}
	seg.verified = true
	return nil
}

// Evict garbage-collects segments that are (a) verified, (b) done
// serving as their successor's boundary evidence — the successor is
// verified too (or already gone) — and (c) older than newestSealed −
// retention. Returns how many were dropped. Unverified epochs are
// never evicted, however old: an unverified epoch holds the only
// evidence of what its interval's traffic did.
func (w *WindowedStore) Evict() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.hasSealed || w.maxSealed < EpochID(w.retention) {
		return 0
	}
	horizon := w.maxSealed - EpochID(w.retention)
	n := 0
	for e, seg := range w.segs {
		if e >= horizon || !seg.verified {
			continue
		}
		if next, ok := w.segs[e+1]; ok && !next.verified {
			continue // still the successor's lookback evidence
		}
		delete(w.segs, e)
		n++
		w.evicted++
		if e >= w.minEpoch {
			w.minEpoch = e + 1
		}
	}
	return n
}

// WindowStats is a snapshot of the store's occupancy — the quantity
// the bounded-memory assertion tracks.
type WindowStats struct {
	// Segments is how many epoch segments are currently held.
	Segments int
	// Evicted is the cumulative number of segments garbage-collected.
	Evicted uint64
	// OldestHeld and NewestHeld bound the held epochs (zero when
	// Segments is 0).
	OldestHeld, NewestHeld EpochID
	// IndexBuilds is the cumulative number of times a (HOP, epoch)'s
	// receipts were indexed: once per sealed (HOP, epoch), by the first
	// view of the fully sealed epoch, in a healthy run; more when epochs
	// had to be viewed while a HOP had yet to seal them.
	IndexBuilds uint64
	// IndexedSegments is how many held segments every expected HOP has
	// sealed — the ones whose leaf, once the first view has built it,
	// every view shares.
	IndexedSegments int
}

// Stats returns the store's occupancy snapshot.
func (w *WindowedStore) Stats() WindowStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := WindowStats{Segments: len(w.segs), Evicted: w.evicted, IndexBuilds: w.indexBuilds}
	first := true
	for e, seg := range w.segs {
		if seg.leaf != nil || len(seg.sealed) == len(w.hops) {
			st.IndexedSegments++
		}
		if first || e < st.OldestHeld {
			st.OldestHeld = e
		}
		if first || e > st.NewestHeld {
			st.NewestHeld = e
		}
		first = false
	}
	return st
}

// DomainBiasVerdict is one domain's per-epoch marker-bias check
// outcome (see Verifier.CheckMarkerBias); produced only when the
// verifier's config enables BiasChecks and the epoch held enough
// samples to judge.
type DomainBiasVerdict struct {
	Domain string
	Report MarkerBiasReport
}

// EpochKeyReport is one traffic key's verification outcome within one
// epoch.
type EpochKeyReport struct {
	Key packet.PathKey
	// Route is the ordinal of the key's route layout this report
	// covers — always 0 on a linear path, 0..N-1 for a mesh key with N
	// ECMP routes (see RollingVerifier.SetKeyLayouts).
	Route   int
	Links   []LinkVerdict
	Domains []DomainReport
	// Blames attributes every link violation to its narrowest
	// implicated HOP/domain set, by evidence class (see AttributeBlame);
	// empty for a violation-free epoch.
	Blames []Blame
	// Bias holds the per-domain marker-bias verdicts when
	// VerifierConfig.BiasChecks is set.
	Bias []DomainBiasVerdict
}

// EpochReport is the rolling verifier's per-epoch delta: every traffic
// key observed around the epoch, each with its link verdicts and
// domain reports — the unit a continuous deployment publishes as each
// interval closes. Reports are computed over the epoch's ±1-interval
// evidence window, so consecutive reports overlap at the boundaries
// (a sample in flight across an epoch edge is matched — and counted —
// in both neighbors' reports).
type EpochReport struct {
	Epoch EpochID
	Keys  []EpochKeyReport
	// Seq holds the sequential verdicts that crossed during this epoch
	// when the SPRT arm is on (VerifierConfig.Sequential). Omitted from
	// the canonical encoding when empty, so an unarmed run's persisted
	// verdict bytes are identical to before the arm existed.
	Seq []seqdetect.SeqVerdict `json:"Seq,omitempty"`
}

// Violations counts the consistency violations across all keys and
// links of the epoch.
func (r EpochReport) Violations() int {
	n := 0
	for _, k := range r.Keys {
		for _, lv := range k.Links {
			n += len(lv.Violations)
		}
	}
	return n
}

// MatchedSamples sums the matched samples across all keys and links.
func (r EpochReport) MatchedSamples() int64 {
	var n int64
	for _, k := range r.Keys {
		for _, lv := range k.Links {
			n += int64(lv.MatchedSamples)
		}
	}
	return n
}

// RollingVerifier turns sealed epochs into per-epoch reports: for each
// Ready epoch it runs the full §4 verification (VerifyAllLinks +
// DomainReports) over every traffic key in the epoch's evidence
// window, then marks the epoch verified so the window can evict it.
// Rolling operation changes when verification runs, not what it
// computes: a one-shot run is the one-epoch stream
// (Deployment.VerifyOnce), and sealing every epoch's receipts as that
// one epoch yields the one-shot report byte for byte
// (TestBatchContinuousEquivalence).
type RollingVerifier struct {
	layout     Layout
	cfg        VerifierConfig
	win        *WindowedStore
	quantiles  []float64
	confidence float64
	// keyLayouts, when set, overrides the single linear layout with
	// per-traffic-key route layouts (mesh verification): each key
	// verifies once per route. Keys absent from the map fall back to
	// the constructor layout.
	keyLayouts map[packet.PathKey][]Layout
	// plans memoises what verifying a key needs from its route layouts
	// (see keyPlan), filled the first time a key is seen; fallback is
	// the constructor layout's, shared by every key without layouts of
	// its own.
	plans    map[packet.PathKey]*keyPlan
	fallback *keyPlan
	// seq is the sequential-detection engine of the SPRT arm, nil when
	// VerifierConfig.Sequential is unset; seqKeys holds each key's
	// detector handles beside plans (see keySeq), cut from seqKeySlab,
	// seqSlab and seqBiasSlab. The planning pass finds or makes a key's
	// handles; inside the key loop, only the worker checking the key
	// touches them.
	seq         *seqdetect.Engine
	seqKeys     map[packet.PathKey]*keySeq
	seqKeySlab  []keySeq
	seqSlab     []*seqdetect.Detector
	seqBiasSlab []int32
	// job is the epoch under verification as the planning pass lays it
	// out, and workers the key loop's per-goroutine state (workers[0]
	// runs on the calling goroutine), both kept from epoch to epoch;
	// helpers joins the others.
	job     epochJob
	workers []*keyWorker
	helpers sync.WaitGroup
	// enc is the grow-only buffer each epoch's report record is
	// encoded into on its way to the durable backend, by rec, whose
	// tables are likewise kept from epoch to epoch.
	enc []byte
	rec recordEncoder
}

// epochJob is one epoch's work. First the leaves its view claimed
// unbuilt (builds), each cut into width key partitions; the workers
// take (leaf, partition) pairs through next, and built counts them down
// with one more count for the planning pass. Then the key loop, laid
// out by the planning pass: which keys, each key's plan, where its
// reports sit in reports (at[i] is key i's first, one per route, with
// their verdict and estimate slab ranges already cut) and, with the
// SPRT arm on, its detector handles. Worker j of w checks keys j, j+w, …
// They only read the layout, and each writes only the partitions it
// took and the reports of its own keys.
type epochJob struct {
	builds []*epochLeaf
	width  int
	next   atomic.Int32
	built  sync.WaitGroup

	epoch      EpochID
	view       *epochView
	claims     *epochLeaf
	keys       []packet.PathKey
	plans      []*keyPlan
	at         []int
	seqs       []*keySeq
	reports    []EpochKeyReport
	quantiles  []float64
	confidence float64
}

// keyWorker is one goroutine's share of an epoch: the scratch of the
// leaf partitions it builds, its own read view, check scope and kernel
// scratch, the resolved windows of the key under check and the slab
// their concatenated aggregates are cut from, and its feed of the SPRT
// arm. A worker keeps all of it from epoch to epoch, and shares none of
// it.
type keyWorker struct {
	idx     indexScratch
	v       Verifier
	scope   checkScope
	scratch kernelScratch
	wins    []hopWindow
	aggs    []receipt.AggReceipt
	seq     seqArm
	// err is the worker's first failure this epoch, at key errKey.
	err    error
	errKey int
}

// keyPlan is what verifying one traffic key takes from its route
// layouts, worked out once: per route, which segments are the links it
// owns (see OwnedLinks) and which are its domains — as ordinals into
// the layouts' own Segments, which stay where the deployment built
// them.
type keyPlan struct {
	layouts []Layout
	routes  []routePlan // parallel to layouts
}

type routePlan struct {
	owned   []plannedLink
	domains []int32 // ordinals of the domain segments, in path order
}

// plannedLink is one owned link: its LinkID (ordinal among the
// layout's link segments) and its ordinal in Layout.Segments.
type plannedLink struct {
	id, seg int32
}

// planRoutes builds the plan of one key's route layouts.
func planRoutes(layouts []Layout) *keyPlan {
	p := &keyPlan{layouts: layouts, routes: make([]routePlan, len(layouts))}
	owned := OwnedLinks(layouts)
	for r, lay := range layouts {
		rp := &p.routes[r]
		if len(owned[r]) > 0 {
			rp.owned = make([]plannedLink, 0, len(owned[r]))
		}
		next := owned[r]
		id := int32(0)
		for si, seg := range lay.Segments {
			switch seg.Kind {
			case LinkSegment:
				if len(next) > 0 && next[0] == int(id) {
					rp.owned = append(rp.owned, plannedLink{id: id, seg: int32(si)})
					next = next[1:]
				}
				id++
			case DomainSegment:
				rp.domains = append(rp.domains, int32(si))
			}
		}
	}
	return p
}

// SetKeyLayouts installs per-key route layouts for mesh verification
// (see Deployment.KeyLayouts). The constructor's layout remains the
// fallback for keys not in the map. Call before verification starts.
//
// This lifts a linear-path assumption that was latent in rolling
// verification: one Layout applied to every traffic key is only
// correct when all keys follow the same HOP sequence — on a mesh each
// key (and each ECMP route of a key) has its own.
func (rv *RollingVerifier) SetKeyLayouts(layouts map[packet.PathKey][]Layout) {
	rv.keyLayouts = layouts
	rv.plans = make(map[packet.PathKey]*keyPlan)
	if rv.seq != nil {
		// Slots follow the plans. The detectors the old slots held are not
		// found again, which is why layouts are set before verifying.
		rv.seqKeys = make(map[packet.PathKey]*keySeq)
	}
}

// planFor resolves the plan a key verifies against: its own route
// layouts', or the constructor layout's. A key with layouts of its own
// is looked up in plans alone once it has been seen.
func (rv *RollingVerifier) planFor(key packet.PathKey) *keyPlan {
	if p := rv.plans[key]; p != nil {
		return p
	}
	if ls := rv.keyLayouts[key]; len(ls) > 0 {
		p := planRoutes(ls)
		rv.plans[key] = p
		return p
	}
	if rv.fallback == nil {
		rv.fallback = planRoutes([]Layout{rv.layout})
	}
	return rv.fallback
}

// NewRollingVerifier builds a rolling verifier over win. quantiles and
// confidence parameterize the per-domain delay estimates (defaults:
// quantile.DefaultQuantiles, 0.95).
func NewRollingVerifier(layout Layout, cfg VerifierConfig, win *WindowedStore, quantiles []float64, confidence float64) *RollingVerifier {
	if len(quantiles) == 0 {
		quantiles = quantile.DefaultQuantiles
	}
	if confidence == 0 {
		confidence = 0.95
	}
	rv := &RollingVerifier{layout: layout, cfg: cfg, win: win, quantiles: quantiles, confidence: confidence}
	if cfg.Sequential != nil {
		rv.seq = seqdetect.NewEngine(*cfg.Sequential)
		rv.seqKeys = make(map[packet.PathKey]*keySeq)
	}
	return rv
}

// VerifyEpoch verifies one sealed epoch and marks it verified: every
// traffic key with receipts sealed in the epoch gets the scoped §4
// link checks and per-domain estimates (claims from the epoch,
// evidence from the ±1 window — see linkcheck.go). An epoch with no
// traffic yields an empty report.
//
// The epoch runs on min(GOMAXPROCS, keys) workers: the calling
// goroutine and one helper per further worker, started for the epoch
// and joined before anything is filed. The workers first build the
// leaves the view claimed — in a stream, the successor epoch's, the
// target's having been built by the view before — one key partition at
// a time while the calling goroutine plans the key loop, and meet at
// one barrier. Then worker j of w checks keys j, j+w, …, feeding the
// SPRT arm as it goes. Every partition has one builder, every key's
// report has its place before the loop starts, and every detector its
// place in the emission order (see seqarm.go), so the report does not
// depend on scheduling. On failure the error is that of the
// lowest-numbered key that failed.
func (rv *RollingVerifier) VerifyEpoch(epoch EpochID) (EpochReport, error) {
	rep := EpochReport{Epoch: epoch}
	view, err := rv.win.view(epoch)
	if err != nil {
		return rep, err
	}
	scratch := &rv.workersFor(1)[0].idx
	claims := view.leaves[view.target]
	if view.claims(claims) {
		// The first view of the target: nothing says how wide the epoch is
		// until its leaf is built, so this view's leaves are built here.
		view.build(scratch)
	}
	claims.done.Wait() // built by an earlier view, normally long since
	n := claims.len()
	if n == 0 {
		view.build(scratch)
		// An empty epoch still closes the sequential engine's epoch so
		// detection latency counts calendar epochs, not traffic epochs.
		rep.Seq = rv.endSequentialEpoch(epoch)
		if err := rv.persist(&rep); err != nil {
			return rep, err
		}
		return rep, rv.win.MarkVerified(epoch)
	}
	w := min(runtime.GOMAXPROCS(0), n)
	job := &rv.job
	job.builds, job.width = view.claimed[:view.nc], w
	for _, l := range job.builds {
		l.split(w)
	}
	job.next.Store(0)
	job.built.Add(len(job.builds)*w + 1)
	workers := rv.workersFor(w)
	rv.helpers.Add(w - 1)
	for j := 1; j < w; j++ {
		go rv.help(workers[j], j, w)
	}
	rv.plan(epoch, view, claims)
	view.wait()
	job.built.Done()
	workers[0].build(job)
	job.built.Wait()
	for _, l := range job.builds {
		l.release()
	}
	rep.Keys = job.reports
	workers[0].run(job, 0, w)
	rv.helpers.Wait()
	defer job.release()
	failed := -1
	for j, wk := range workers {
		if wk.err != nil && (failed < 0 || wk.errKey < workers[failed].errKey) {
			failed = j
		}
	}
	if failed >= 0 {
		return rep, workers[failed].err
	}
	rep.Seq = rv.endSequentialEpoch(epoch)
	// The verdict goes durable before the RAM window forgets the epoch
	// needs judging — a crash between the two re-verifies, never skips.
	if err := rv.persist(&rep); err != nil {
		return rep, err
	}
	if err := rv.win.MarkVerified(epoch); err != nil {
		return rep, err
	}
	return rep, nil
}

// plan is VerifyEpoch's serial pass, run while the helpers build: it
// reads only the target's leaf, resolves every key's plan and, with the
// SPRT arm on, its detector slots, and cuts the epoch's reports. One
// report per (key, route layout): a linear path has exactly one layout
// per key; a mesh key verifies once per ECMP route, each route checking
// the links it owns (see OwnedLinks) — so violation and blame counts
// tally distinct link verifications.
func (rv *RollingVerifier) plan(epoch EpochID, view *epochView, claims *epochLeaf) {
	job := &rv.job
	keys := claims.keys()
	job.epoch, job.view, job.claims, job.keys = epoch, view, claims, keys
	job.quantiles, job.confidence = rv.quantiles, rv.confidence
	job.plans, job.at, job.seqs = job.plans[:0], job.at[:0], job.seqs[:0]
	reports, links, domains := 0, 0, 0
	for _, key := range keys {
		p := rv.planFor(key)
		job.plans = append(job.plans, p)
		job.at = append(job.at, reports)
		if rv.seq != nil {
			job.seqs = append(job.seqs, rv.keySeqFor(key, p))
		}
		reports += len(p.routes)
		for ri := range p.routes {
			links += len(p.routes[ri].owned)
			domains += len(p.routes[ri].domains)
		}
	}
	// Every (key, route) report's verdicts and estimates are cut from one
	// slab each, capped so an append to one report never reaches the next.
	job.reports = make([]EpochKeyReport, reports)
	linkSlab, domainSlab := make([]LinkVerdict, links), make([]DomainReport, domains)
	for i, key := range keys {
		for ri := range job.plans[i].routes {
			plan := &job.plans[i].routes[ri]
			kr := &job.reports[job.at[i]+ri]
			kr.Key, kr.Route = key, ri
			if n := len(plan.owned); n > 0 {
				kr.Links, linkSlab = linkSlab[:0:n], linkSlab[n:]
			}
			if n := len(plan.domains); n > 0 {
				kr.Domains, domainSlab = domainSlab[:0:n], domainSlab[n:]
			}
		}
	}
}

// release lets go of the epoch's evidence and report once the epoch is
// done with; the grow-only slices stay for the next.
func (job *epochJob) release() {
	job.builds, job.view, job.claims, job.keys, job.reports = nil, nil, nil, nil, nil
}

// workersFor returns the first w workers, making those not made yet.
func (rv *RollingVerifier) workersFor(w int) []*keyWorker {
	for len(rv.workers) < w {
		wk := &keyWorker{}
		wk.v.cfg, wk.v.keyed = rv.cfg, true
		wk.scope = checkScope{view: &wk.v, scratch: &wk.scratch}
		if rv.seq != nil {
			wk.seq.feeder = rv.seq.NewFeeder()
			wk.scope.seq = &wk.seq
		}
		rv.workers = append(rv.workers, wk)
	}
	return rv.workers[:w]
}

// help runs a helper's share of the epoch: leaf partitions until none
// is left, the barrier, then keys first, first+stride, …
func (rv *RollingVerifier) help(wk *keyWorker, first, stride int) {
	defer rv.helpers.Done()
	job := &rv.job
	wk.build(job)
	job.built.Wait()
	wk.run(job, first, stride)
}

// build takes the job's leaf partitions one at a time and builds them
// until none is left.
func (wk *keyWorker) build(job *epochJob) {
	for {
		i := int(job.next.Add(1)) - 1
		if i >= len(job.builds)*job.width {
			return
		}
		job.builds[i/job.width].buildPart(i%job.width, &wk.idx)
		job.built.Done()
	}
}

// run checks keys first, first+stride, … of job, stopping at the first
// that fails.
func (wk *keyWorker) run(job *epochJob, first, stride int) {
	wk.err = nil
	// The view spans max(0, epoch−1)..epoch+1, so it reaches the stream
	// start exactly when epoch ≤ 1.
	wk.scope.headComplete = job.epoch <= 1
	wk.scope.tailComplete = job.view.tailComplete
	for i := first; i < len(job.keys); i += stride {
		if err := wk.verifyKey(job, i); err != nil {
			wk.err, wk.errKey = err, i
			return
		}
	}
}

// verifyKey fills key i's reports.
func (wk *keyWorker) verifyKey(job *epochJob, i int) error {
	key, p := job.keys[i], job.plans[i]
	v, scope := &wk.v, &wk.scope
	wk.wins = job.view.resolve(key, wk.wins[:0], &wk.aggs)
	v.key, v.wins = key, wk.wins
	// A view of the target's leaf alone is the whole stream — claims and
	// evidence at once, as in a one-shot run (Deployment.VerifyOnce) — so
	// it keeps no separate claims.
	scope.claims = nil
	if job.view.n > 1 {
		scope.claims = job.claims.get(key)
	}
	// s is the next check's first slot in the key's work order: where its
	// detectors sit in keySeq.slots — unless a bias detector's slot is
	// shared — and their position among the key's; b counts the domains.
	var arm *seqArm
	if job.seqs != nil {
		arm = &wk.seq
		arm.key, arm.ks, arm.base = key, job.seqs[i], uint64(i)<<32
	}
	s, b := 0, 0
	for ri := range p.routes {
		layout, plan := p.layouts[ri], &p.routes[ri]
		v.layout = layout
		kr := &job.reports[job.at[i]+ri]
		for _, l := range plan.owned {
			if arm != nil {
				arm.at(s, 3, s)
			}
			s += 3
			seg := &layout.Segments[l.seg]
			kr.Links = append(kr.Links, scope.checkLink(int(l.id), seg.Up, seg.Down))
		}
		for _, si := range plan.domains {
			if arm != nil {
				arm.at(int(arm.ks.bias[b]), 1, s)
			}
			s, b = s+1, b+1
			dr, err := scope.domainReport(layout.Segments[si], job.quantiles, job.confidence)
			if err != nil {
				return fmt.Errorf("core: epoch %d key %v: %w", job.epoch, key, err)
			}
			kr.Domains = append(kr.Domains, dr)
		}
		kr.Blames = AttributeBlame(layout, job.epoch, kr.Links)
		if v.cfg.BiasChecks {
			for _, si := range plan.domains {
				seg := layout.Segments[si]
				bias, err := v.CheckMarkerBias(seg.Up, seg.Down)
				if err != nil {
					continue // too few samples this epoch to judge
				}
				kr.Bias = append(kr.Bias, DomainBiasVerdict{Domain: seg.Name, Report: bias})
				if bias.Suspicious {
					kr.Blames = append(kr.Blames, BlameMarkerBias(job.epoch, seg, bias))
				}
			}
		}
	}
	return nil
}

// persist files rep's record with the window's backend through rv.enc.
func (rv *RollingVerifier) persist(rep *EpochReport) (err error) {
	rv.enc, err = rv.win.persistReport(rep, &rv.rec, rv.enc)
	return err
}

// VerifyReady verifies every Ready epoch in ascending order and
// returns their reports. Epochs recovered from a durable backend —
// sealed below the recovery watermark with a verdict report already on
// disk — are marked verified without re-verification and yield no
// report here (the durable report stands; WindowedStore.Recovered
// counts them).
func (rv *RollingVerifier) VerifyReady() ([]EpochReport, error) {
	return rv.VerifyReadyBefore(^EpochID(0))
}

// VerifyReadyBefore is VerifyReady restricted to epochs below limit —
// how a verifier that knows the stream's terminal epoch up front holds
// the last two epochs back until the stream is declared over.
func (rv *RollingVerifier) VerifyReadyBefore(limit EpochID) ([]EpochReport, error) {
	var out []EpochReport
	for _, e := range rv.win.Ready() {
		if e >= limit {
			break
		}
		if rv.win.skipRecovered(e) {
			continue
		}
		rep, err := rv.VerifyEpoch(e)
		if err != nil {
			return out, err
		}
		out = append(out, rep)
	}
	return out, nil
}
