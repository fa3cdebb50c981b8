package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

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
// verification reads the indices View handed it without the store's
// lock, and those never change — a sealed (HOP, epoch) receives no
// further receipts, and a segment some HOP has yet to seal is viewed
// through a private copy.
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
	// indexBuilds counts (HOP, epoch) indexings, cached or not.
	indexBuilds uint64
	runs        []keyRun // leaf.addHOP's scratch
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
// the epoch; the seal makes them final, so that is when they are
// indexed — once — into the segment's leaf and the raw slices let go
// (the leaf aliases their records). Every neighbouring target epoch's
// evidence view then reads that same leaf. The store's mutex guards
// every field.
type epochSegment struct {
	pending map[receipt.HOPID]pendingReceipts
	// index holds the expected HOPs that sealed; indexed counts them.
	// Once indexed reaches the expected HOP count nothing writes index
	// again, and views share it.
	index    leaf
	indexed  int
	sealedBy map[receipt.HOPID]bool
	verified bool
}

// pendingReceipts is what one HOP has delivered for an epoch it has not
// sealed yet.
type pendingReceipts struct {
	samples []receipt.SampleReceipt
	aggs    []receipt.AggReceipt
}

func newEpochSegment() *epochSegment {
	return &epochSegment{
		pending:  make(map[receipt.HOPID]pendingReceipts),
		index:    make(leaf),
		sealedBy: make(map[receipt.HOPID]bool),
	}
}

// add appends receipts for one HOP. The first delivery — with one
// bundle per sealed epoch, the only one — is referenced, not copied.
func (s *epochSegment) add(hop receipt.HOPID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
	p, ok := s.pending[hop]
	if !ok {
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
	seg := newEpochSegment()
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
// indexes what it delivered into the epoch's leaf (an expected HOP's —
// nothing ever reads another's). When the last expected HOP seals an
// epoch it counts toward readiness. With a durable backend attached,
// the HOP's now-final receipt set is mirrored to it first, and the
// epoch's durable seal is committed when the last HOP seals — unless
// the epoch predates the recovery watermark (already durable;
// re-persisting would double-count). Receipts whose persist failed
// stay pending, and views index them on demand.
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
			seg.index.addHOP(hop, p.samples, p.aggs, true, nil, &w.runs)
			seg.indexed++
			w.indexBuilds++
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

// Holds reports whether the store still has a segment for epoch.
func (w *WindowedStore) Holds(epoch EpochID) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.segs[epoch]
	return ok
}

// epochView is the evidence one target epoch is judged on: the leaves
// of the epochs before it, of itself and after it that the store
// holds, oldest first. The neighbours supply the boundary-spill
// evidence — receipts a HOP sealed one interval away for packets that
// crossed the target interval's edges in flight.
type epochView struct {
	leaves [3]leaf
	n      int
	// target is the position of the target epoch's own leaf: the
	// records a per-epoch report vouches for.
	target int
	// tailComplete reports that nothing can exist beyond the view's
	// upper edge (see tailCompleteLocked).
	tailComplete bool
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
		ki := v.leaves[li][key]
		if ki == nil {
			continue
		}
	hops:
		for _, h := range ki.hops {
			for i := range wins {
				if wins[i].hop == h.hop {
					w := &wins[i].win
					w.leaves[w.n] = h.pi
					w.n++
					continue hops
				}
			}
			wins = append(wins, hopWindow{hop: h.hop, win: soleWindow(h.pi)})
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

// View returns the evidence view of one target epoch: the target
// segment's leaf plus its immediate neighbours' (when they exist). No
// receipt is touched: a segment every expected HOP has sealed hands out
// the leaf it built as they sealed.
func (w *WindowedStore) View(epoch EpochID) (*epochView, error) {
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
		v.leaves[v.n] = w.leafLocked(seg)
		v.n++
	}
	return v, nil
}

// leafLocked returns seg's receipts as a leaf. Once every expected HOP
// has sealed that is the segment's own index, shared and never written
// again. Until then it is a private copy with the pending receipts of
// the HOPs still to seal indexed in — built per view and not kept, so
// a bundle that arrives after one view was taken is in the next.
func (w *WindowedStore) leafLocked(seg *epochSegment) leaf {
	if seg.indexed == len(w.hops) {
		return seg.index
	}
	out := make(leaf, len(seg.index))
	for key, ki := range seg.index {
		out[key] = &keyIndex{hops: ki.hops[:len(ki.hops):len(ki.hops)]}
	}
	for _, hop := range w.hops {
		if p, ok := seg.pending[hop]; ok {
			out.addHOP(hop, p.samples, p.aggs, true, nil, &w.runs)
			w.indexBuilds++
		}
	}
	return out
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
	// receipts were indexed: once per seal in a healthy run, more when
	// epochs had to be viewed while a HOP had yet to seal them.
	IndexBuilds uint64
	// IndexedSegments is how many held segments every expected HOP has
	// sealed — the ones a view reads without indexing anything.
	IndexedSegments int
}

// Stats returns the store's occupancy snapshot.
func (w *WindowedStore) Stats() WindowStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := WindowStats{Segments: len(w.segs), Evicted: w.evicted, IndexBuilds: w.indexBuilds}
	first := true
	for e, seg := range w.segs {
		if seg.indexed == len(w.hops) {
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
	// detector handles beside plans (see keySeq), cut from seqSlab. Only
	// the verification goroutine touches them, and the scratch below.
	seq     *seqdetect.Engine
	seqKeys map[packet.PathKey]keySeq
	seqSlab []*seqdetect.Detector
	// wins and aggs are the current key's resolved windows and the slab
	// their concatenated aggregates are cut from, reused key after key.
	wins []hopWindow
	aggs []receipt.AggReceipt
	// enc is the grow-only buffer each epoch's canonical report is
	// encoded into on its way to the durable backend.
	enc []byte
	// scratch is the link-check kernel's working storage, reused for
	// every key of every epoch this verifier checks.
	scratch kernelScratch
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
		// Slots follow the plans; the detectors they point to stay in the
		// engine and are found again.
		rv.seqKeys = make(map[packet.PathKey]keySeq)
	}
}

// planFor resolves the plan a key verifies against: its own route
// layouts', or the constructor layout's.
func (rv *RollingVerifier) planFor(key packet.PathKey) *keyPlan {
	if ls := rv.keyLayouts[key]; len(ls) > 0 {
		p := rv.plans[key]
		if p == nil {
			p = planRoutes(ls)
			rv.plans[key] = p
		}
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
		rv.seqKeys = make(map[packet.PathKey]keySeq)
	}
	return rv
}

// VerifyEpoch verifies one sealed epoch and marks it verified: every
// traffic key with receipts sealed in the epoch gets the scoped §4
// link checks and per-domain estimates (claims from the epoch,
// evidence from the ±1 window — see linkcheck.go). An epoch with no
// traffic yields an empty report. Keys verify one after another, in
// work order.
func (rv *RollingVerifier) VerifyEpoch(epoch EpochID) (EpochReport, error) {
	rep := EpochReport{Epoch: epoch}
	view, err := rv.win.View(epoch)
	if err != nil {
		return rep, err
	}
	claims := view.leaves[view.target]
	keys := claims.keys()
	if len(keys) == 0 {
		// An empty epoch still closes the sequential engine's epoch so
		// detection latency counts calendar epochs, not traffic epochs.
		rep.Seq = rv.endSequentialEpoch(epoch)
		if rv.enc, err = rv.win.persistReport(&rep, rv.enc); err != nil {
			return rep, err
		}
		return rep, rv.win.MarkVerified(epoch)
	}
	// One report per (key, route layout): a linear path has exactly one
	// layout per key; a mesh key verifies once per ECMP route, each
	// route checking the links it owns (see OwnedLinks) — so violation
	// and blame counts tally distinct link verifications.
	plans := make([]*keyPlan, len(keys))
	reports, links, domains := 0, 0, 0
	for i, key := range keys {
		plans[i] = rv.planFor(key)
		reports += len(plans[i].routes)
		for ri := range plans[i].routes {
			links += len(plans[i].routes[ri].owned)
			domains += len(plans[i].routes[ri].domains)
		}
	}
	rep.Keys = make([]EpochKeyReport, reports)
	// Every (key, route) report's verdicts and estimates are cut from one
	// slab each, capped so an append to one report never reaches the next.
	linkSlab, domainSlab := make([]LinkVerdict, links), make([]DomainReport, domains)
	v := &Verifier{cfg: rv.cfg, keyed: true}
	scope := &checkScope{
		view: v,
		// The view spans max(0, epoch−1)..epoch+1, so it reaches the
		// stream start exactly when epoch ≤ 1.
		headComplete: epoch <= 1,
		tailComplete: view.tailComplete,
		seq:          rv.seq,
		scratch:      &rv.scratch,
	}
	next := 0
	for i, key := range keys {
		rv.wins = view.resolve(key, rv.wins[:0], &rv.aggs)
		v.key, v.wins = key, rv.wins
		// A view of the target's leaf alone is the whole stream —
		// claims and evidence at once, as in a one-shot run
		// (Deployment.VerifyOnce) — so it keeps no separate claims.
		if view.n > 1 {
			scope.claims = claims[key]
		}
		// slots are the key's detector handles still to be handed out,
		// in the order the checks below consume them.
		var slots []*seqdetect.Detector
		if rv.seq != nil {
			ks := rv.keySeqFor(key, plans[i])
			scope.seqKey, slots = ks.name, ks.slots
		}
		for ri := range plans[i].routes {
			layout, plan := plans[i].layouts[ri], &plans[i].routes[ri]
			v.layout = layout
			kr := EpochKeyReport{Key: key, Route: ri}
			if n := len(plan.owned); n > 0 {
				kr.Links, linkSlab = linkSlab[:0:n], linkSlab[n:]
			}
			for _, l := range plan.owned {
				if slots != nil {
					scope.dets, slots = slots[:3], slots[3:]
				}
				seg := &layout.Segments[l.seg]
				kr.Links = append(kr.Links, scope.checkLink(int(l.id), seg.Up, seg.Down))
			}
			if n := len(plan.domains); n > 0 {
				kr.Domains, domainSlab = domainSlab[:0:n], domainSlab[n:]
			}
			for _, si := range plan.domains {
				if slots != nil {
					scope.dets, slots = slots[:1], slots[1:]
				}
				dr, err := scope.domainReport(layout.Segments[si], rv.quantiles, rv.confidence)
				if err != nil {
					return rep, fmt.Errorf("core: epoch %d key %v: %w", epoch, key, err)
				}
				kr.Domains = append(kr.Domains, dr)
			}
			kr.Blames = AttributeBlame(layout, epoch, kr.Links)
			if rv.cfg.BiasChecks {
				for _, si := range plan.domains {
					seg := layout.Segments[si]
					bias, err := v.CheckMarkerBias(seg.Up, seg.Down)
					if err != nil {
						continue // too few samples this epoch to judge
					}
					kr.Bias = append(kr.Bias, DomainBiasVerdict{Domain: seg.Name, Report: bias})
					if bias.Suspicious {
						kr.Blames = append(kr.Blames, BlameMarkerBias(epoch, seg, bias))
					}
				}
			}
			rep.Keys[next] = kr
			next++
		}
	}
	rep.Seq = rv.endSequentialEpoch(epoch)
	// The verdict goes durable before the RAM window forgets the epoch
	// needs judging — a crash between the two re-verifies, never skips.
	if rv.enc, err = rv.win.persistReport(&rep, rv.enc); err != nil {
		return rep, err
	}
	if err := rv.win.MarkVerified(epoch); err != nil {
		return rep, err
	}
	return rep, nil
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
