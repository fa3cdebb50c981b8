package core

import (
	"errors"
	"fmt"
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
// of raw receipts per epoch, so the pipeline can verify epoch N (a
// sealed, immutable segment) while epoch N+1 is still ingesting into
// its own segment, and garbage-collect old epochs once they are
// verified and outside the retention window.
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
// epoch N+1 may run concurrently with verification of epoch N−1
// (different segments); ingest and verification of the same epoch are
// mutually exclusive by the seal protocol (only Ready — fully sealed —
// epochs are verified, and a sealed (HOP, epoch) receives no further
// receipts).
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
	// Durable persistence (see backend.go). backend mirrors seals to
	// stable storage; durable/hasDurable is the recovery watermark
	// captured at attach; recovered counts epochs whose verification
	// was skipped because a durable verdict report already existed.
	backend    StoreBackend
	durable    EpochID
	hasDurable bool
	recovered  uint64
}

// epochSegment is one epoch's worth of raw receipts plus its
// lifecycle state. Receipts are kept raw (per HOP, in arrival order)
// rather than pre-indexed, because verification reads them through a
// multi-epoch evidence window assembled per target epoch.
type epochSegment struct {
	mu       sync.Mutex
	samples  map[receipt.HOPID][]receipt.SampleReceipt
	aggs     map[receipt.HOPID][]receipt.AggReceipt
	sealedBy map[receipt.HOPID]bool
	verified bool
}

func newEpochSegment() *epochSegment {
	return &epochSegment{
		samples:  make(map[receipt.HOPID][]receipt.SampleReceipt),
		aggs:     make(map[receipt.HOPID][]receipt.AggReceipt),
		sealedBy: make(map[receipt.HOPID]bool),
	}
}

// add appends receipts for one HOP.
func (s *epochSegment) add(hop receipt.HOPID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples[hop] = append(s.samples[hop], samples...)
	s.aggs[hop] = append(s.aggs[hop], aggs...)
}

// receipts snapshots the segment's receipt slices for hop — the final
// set at seal time, handed to the durable backend.
func (s *epochSegment) receipts(hop receipt.HOPID) ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples[hop], s.aggs[hop]
}

// ingestInto files the segment's receipts for hop into store.
func (s *epochSegment) ingestInto(store *ReceiptStore, hop receipt.HOPID) {
	s.mu.Lock()
	samples, aggs := s.samples[hop], s.aggs[hop]
	s.mu.Unlock()
	for _, r := range samples {
		store.AddSamples(hop, r)
	}
	store.AddAggs(hop, aggs)
}

// NewWindowedStore builds a windowed store expecting receipts from the
// given HOPs (an epoch seals when all of them sealed it), keeping at
// most retention verified epochs behind the newest sealed one.
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
		hops:      sorted,
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
// having sealed it.
func (w *WindowedStore) IngestSealed(hop receipt.HOPID, epoch EpochID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) error {
	w.mu.Lock()
	seg, err := w.segmentLocked(epoch)
	w.mu.Unlock()
	if err != nil {
		return err
	}
	// Segment ingest synchronizes per segment, so HOPs sealing
	// different epochs never serialize on the window lock.
	seg.add(hop, samples, aggs)
	return w.SealHOP(hop, epoch)
}

// IngestBundle files one epoch-tagged dissemination bundle into its
// epoch's segment. Pair with SealHOP once a HOP's epoch is known to
// be complete (with one bundle per sealed epoch, that is on receipt of
// the bundle itself). A bundle for a (HOP, epoch) the HOP already
// sealed is refused with a StaleSealError instead of silently mutating
// judged evidence — the detection point for replayed or duplicated
// epochs; a bundle for an evicted epoch is refused with
// ErrEvictedEpoch.
func (w *WindowedStore) IngestBundle(b *dissem.Bundle) error {
	w.mu.Lock()
	seg, err := w.segmentLocked(EpochID(b.Epoch))
	if err == nil && seg.sealedBy[b.Origin] {
		err = &StaleSealError{HOP: b.Origin, Epoch: EpochID(b.Epoch)}
	}
	w.mu.Unlock()
	if err != nil {
		return err
	}
	seg.add(b.Origin, b.Samples, b.Aggs)
	return nil
}

// SealHOP records that hop has no further receipts for epoch. When the
// last expected HOP seals an epoch it counts toward readiness. With a
// durable backend attached, the HOP's now-final receipt set is
// mirrored to it here, and the epoch's durable seal is committed when
// the last HOP seals — unless the epoch predates the recovery
// watermark (already durable; re-persisting would double-count).
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
	if persist {
		samples, aggs := seg.receipts(hop)
		if err := w.backend.AppendEpochHOP(epoch, hop, samples, aggs); err != nil {
			return fmt.Errorf("core: persisting %v epoch %d: %w", hop, epoch, err)
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

// View assembles the verification store for one target epoch: the
// target segment plus its immediate neighbors (when they exist),
// ingested in (epoch, HOP) order so every (HOP, key) index holds its
// records in stream order. The neighbors supply the boundary-spill
// evidence — receipts a HOP sealed one interval away for packets that
// crossed the target interval's edges in flight.
func (w *WindowedStore) View(epoch EpochID) (*ReceiptStore, error) {
	w.mu.Lock()
	var segs []*epochSegment
	if epoch > 0 {
		if seg, ok := w.segs[epoch-1]; ok {
			segs = append(segs, seg)
		}
	}
	target, ok := w.segs[epoch]
	if !ok {
		w.mu.Unlock()
		return nil, fmt.Errorf("core: no segment for epoch %d", epoch)
	}
	segs = append(segs, target)
	if seg, ok := w.segs[epoch+1]; ok {
		segs = append(segs, seg)
	}
	hops := w.hops
	w.mu.Unlock()

	store := NewReceiptStore()
	for _, seg := range segs {
		for _, hop := range hops {
			seg.ingestInto(store, hop)
		}
	}
	return store, nil
}

// claimsStore assembles just the target epoch's receipts — the records
// a per-epoch report vouches for.
func (w *WindowedStore) claimsStore(epoch EpochID) (*ReceiptStore, error) {
	w.mu.Lock()
	target, ok := w.segs[epoch]
	if !ok {
		w.mu.Unlock()
		return nil, fmt.Errorf("core: no segment for epoch %d", epoch)
	}
	hops := w.hops
	w.mu.Unlock()
	store := NewReceiptStore()
	for _, hop := range hops {
		target.ingestInto(store, hop)
	}
	return store, nil
}

// tailComplete reports whether nothing can exist beyond epoch+1: the
// stream has finished, epoch+1 reaches the newest sealed epoch, and no
// segment — sealed or not — holds receipts past the evidence window.
// The last clause matters under bundle withholding: unsealed segments
// beyond the window mean some HOPs' aggregate streams continue past it
// while the withholder's stops, and comparing the half-open tail
// region would smear the withholder's blame across every honest link.
func (w *WindowedStore) tailComplete(epoch EpochID) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
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
}

// Stats returns the store's occupancy snapshot.
func (w *WindowedStore) Stats() WindowStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := WindowStats{Segments: len(w.segs), Evicted: w.evicted}
	first := true
	for e := range w.segs {
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
// computes: ingesting every epoch's receipts into one store and
// verifying once yields verdicts byte-identical to the one-shot batch
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
	// seq is the sequential-detection engine of the SPRT arm, nil when
	// VerifierConfig.Sequential is unset. Only the verification
	// goroutine touches it (see feedSequential).
	seq *seqdetect.Engine
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
}

// layoutsFor resolves the layouts a key verifies against.
func (rv *RollingVerifier) layoutsFor(key packet.PathKey) []Layout {
	if ls, ok := rv.keyLayouts[key]; ok && len(ls) > 0 {
		return ls
	}
	return []Layout{rv.layout}
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
	claims, err := rv.win.claimsStore(epoch)
	if err != nil {
		return rep, err
	}
	keys := claims.Keys()
	if len(keys) == 0 {
		// An empty epoch still closes the sequential engine's epoch so
		// detection latency counts calendar epochs, not traffic epochs.
		rep.Seq = rv.endSequentialEpoch(epoch)
		if err := rv.win.persistReport(rep); err != nil {
			return rep, err
		}
		return rep, rv.win.MarkVerified(epoch)
	}
	// One work item per (key, route layout): a linear path has exactly
	// one layout per key; a mesh key verifies once per ECMP route, each
	// route checking the links it owns (see OwnedLinks) — so per-epoch
	// violation and blame counts tally distinct link verifications,
	// exactly like the batch sweep.
	type keyWork struct {
		key    packet.PathKey
		layout Layout
		route  int
		links  []int // the layout's link ordinals this route owns
	}
	var work []keyWork
	for _, key := range keys {
		layouts := rv.layoutsFor(key)
		owned := OwnedLinks(layouts)
		for ri, lay := range layouts {
			work = append(work, keyWork{key: key, layout: lay, route: ri, links: owned[ri]})
		}
	}
	rep.Keys = make([]EpochKeyReport, len(work))
	for i := range work {
		key, layout := work[i].key, work[i].layout
		v := NewVerifierOn(layout, view, key)
		v.SetConfig(rv.cfg)
		scope := &checkScope{
			view:   v,
			claims: claims,
			// The view spans max(0, epoch−1)..epoch+1, so it reaches
			// the stream start exactly when epoch ≤ 1.
			headComplete: epoch <= 1,
			tailComplete: rv.win.tailComplete(epoch),
			seq:          rv.seq,
		}
		kr := EpochKeyReport{Key: key, Route: work[i].route}
		links := layout.Links()
		for _, li := range work[i].links {
			kr.Links = append(kr.Links, scope.checkLink(li, links[li].Up, links[li].Down))
		}
		for _, seg := range layout.DomainSegments() {
			dr, err := scope.domainReport(seg, rv.quantiles, rv.confidence)
			if err != nil {
				return rep, fmt.Errorf("core: epoch %d key %v: %w", epoch, key, err)
			}
			kr.Domains = append(kr.Domains, dr)
		}
		kr.Blames = AttributeBlame(layout, epoch, kr.Links)
		if rv.cfg.BiasChecks {
			for _, seg := range layout.DomainSegments() {
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
		rep.Keys[i] = kr
	}
	rep.Seq = rv.endSequentialEpoch(epoch)
	// The verdict goes durable before the RAM window forgets the epoch
	// needs judging — a crash between the two re-verifies, never skips.
	if err := rv.win.persistReport(rep); err != nil {
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
