package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"vpm/internal/core"
	"vpm/internal/dissem"
	"vpm/internal/engine"
	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// Verifier is one shard of the fleet's verifier tier. It polls every
// collector's bundle feeds, keeps only the receipts whose traffic key
// it owns under the Ring, and runs the windowed store +
// rolling verifier over that key slice. Because per-key verification
// reads only that key's receipts, each shard's per-key reports are
// byte-for-byte the reports a single whole-store verifier computes —
// MergeShardOutputs recombines the shards' outputs into the exact
// single-process report stream.
//
// Fleet shards run the sequential (SPRT) detection arm off: its engine
// state is global across keys, so its verdicts cannot be recombined
// from key slices (see core.ErrBadMerge). The windowed per-epoch
// checks — the paper's core protocol — shard cleanly.
type Verifier struct {
	world  *World
	ring   *Ring
	shard  int
	ver    *engine.Verify
	client *dissem.Client // set by Run
	// status is the /debug/epochs document, nil unless HandleEpochs
	// was called.
	status *engine.EpochStatus
}

// VerifierOptions tunes the shard's fetch loop.
type VerifierOptions struct {
	// Retry bounds each collector fetch. Zero value means
	// dissem.DefaultRetryPolicy.
	Retry dissem.RetryPolicy
	// Poll is the idle wait between sweeps that found no new bundles.
	// 0 means 20ms.
	Poll time.Duration
	// HTTP optionally overrides the fetch client (timeouts, transports).
	HTTP *http.Client
}

// windowRetention is the verified-epoch retention of every fleet
// window, the reference's included: the ±1 evidence window plus one
// epoch of slack.
const windowRetention = 3

// NewVerifier builds shard `shard` of a `shards`-wide verifier tier.
// Every shard must be built with the same shards count or ownership
// splits inconsistently. Nothing at construction is tunable; the
// options parameter is kept for the callers that pass one.
func NewVerifier(w *World, shards, shard int, _ VerifierOptions) (*Verifier, error) {
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("fleet: shard %d outside [0, %d)", shard, shards)
	}
	ring, err := NewRing(shards)
	if err != nil {
		return nil, err
	}
	// Only owned keys get layouts — at fleet scale the layout map is
	// the dominant allocation, and a shard needs only its own keys':
	// about 1/shards of them, as the Ring splits keys evenly.
	layouts := w.Plan.KeyLayoutsFor(func(k packet.PathKey) bool { return ring.OwnerKey(k) == shard })
	ver, err := engine.NewVerify(
		engine.Store{HOPs: w.HOPs, Retention: windowRetention},
		engine.Checks{Config: w.Plan.VerifierConfig(), KeyLayouts: layouts})
	if err != nil {
		return nil, err
	}
	return &Verifier{world: w, ring: ring, shard: shard, ver: ver}, nil
}

// ErrVerifierReused is Run's answer on a Verifier that has already
// run: its engine holds the first run's feeds, cursors and window, so
// a second run would not be a replay. Build a new Verifier instead.
var ErrVerifierReused = errors.New("fleet: Verifier.Run called twice")

// filterBundle strips b, in place, down to the receipts whose traffic
// key this shard owns — b is the shard's own, freshly decoded. The
// bundle's identity (origin, seq, epoch) is preserved: a
// filtered-to-empty bundle still seals its (HOP, epoch).
func (v *Verifier) filterBundle(b *dissem.Bundle) *dissem.Bundle {
	b.Samples = slices.DeleteFunc(b.Samples, func(r receipt.SampleReceipt) bool { return !v.owns(r.Path.Key) })
	b.Aggs = slices.DeleteFunc(b.Aggs, func(r receipt.AggReceipt) bool { return !v.owns(r.Path.Key) })
	return b
}

// owns reports whether this shard owns traffic key k. Ownership is a
// few multiplies, so nothing is cached: a cache would grow by every
// key any collector names, without bound.
func (v *Verifier) owns(k packet.PathKey) bool { return v.ring.OwnerKey(k) == v.shard }

// HandleEpochs registers /debug/epochs on mux: the held epochs with
// the HOPs each still waits for, the epochs verified and the last of
// them, and the findings so far, as vpm-node serves them. Run refreshes
// it after every verified epoch; call this before Run.
func (v *Verifier) HandleEpochs(mux *http.ServeMux) {
	v.status = &engine.EpochStatus{}
	mux.Handle("/debug/epochs", v.status)
}

// Run is the engine's verify half over one feed per domain, from the
// collector that owns it, each payload authenticated once under the
// domain's key and its bundles filtered to the shard's keys on the way
// in: it polls until every feed is fully consumed, verifying epochs as
// they become ready and evicting behind the retention window, and
// returns this shard's epoch reports in ascending epoch order. The
// engine holds the last two epochs until every feed is drained (its
// stream-end rule), which is what keeps them byte-identical to the
// single-process reference.
//
// Collectors retain all payloads, so a restarted shard re-fetches from
// cursor zero and reproduces its exact output: crash recovery is
// replay, by a new Verifier — Run on one that has run returns
// ErrVerifierReused.
func (v *Verifier) Run(ctx context.Context, collectorURLs []string, opts VerifierOptions) ([]core.EpochReport, error) {
	if v.client != nil {
		return nil, ErrVerifierReused
	}
	if len(collectorURLs) != v.world.Spec.Collectors {
		return nil, fmt.Errorf("fleet: got %d collector URLs, spec has %d collectors", len(collectorURLs), v.world.Spec.Collectors)
	}
	retry := opts.Retry
	if retry == (dissem.RetryPolicy{}) {
		retry = dissem.DefaultRetryPolicy
	}
	poll := opts.Poll
	if poll <= 0 {
		poll = 20 * time.Millisecond
	}
	v.client = &dissem.Client{
		HTTP:     opts.HTTP,
		Registry: v.world.Registry(),
		Viewer:   fmt.Sprintf("shard-%d", v.shard),
	}
	for _, d := range v.world.Domains() {
		url := collectorURLs[v.world.Spec.CollectorOf(d)] + FeedPath(d)
		feed := engine.HTTPFeed(v.client, retry, url, v.world.DomainHOPs(d)[0])
		fetch := feed.Fetch
		feed.Fetch = func(ctx context.Context, since uint64, fn func(*dissem.Bundle) error) (uint64, error) {
			next, err := fetch(ctx, since, func(b *dissem.Bundle) error { return fn(v.filterBundle(b)) })
			if err != nil {
				err = fmt.Errorf("fleet: shard %d: feed %s: %w", v.shard, url, err)
			}
			return next, err
		}
		v.ver.Feeds = append(v.ver.Feeds, feed)
	}
	var reports []core.EpochReport
	v.ver.OnEpoch = func(rep core.EpochReport, ws core.WindowStats) {
		reports = append(reports, rep)
		v.status.Update(v.ver, rep.Epoch, ws)
	}
	if err := v.ver.Run(ctx, v.world.Terminal, poll); err != nil {
		return reports, err
	}
	if len(v.ver.Findings) > 0 {
		return reports, &FindingsError{Shard: v.shard, Findings: v.ver.Findings}
	}
	return reports, nil
}

// FindingsError is how a shard reports the dissemination misbehaviour
// the engine classified into blame (a replayed epoch, a bad signature,
// a withheld bundle): part files have no field for findings yet, and a
// shard that has some must not pass for a clean one.
type FindingsError struct {
	Shard    int
	Findings []core.Blame
}

func (e *FindingsError) Error() string {
	return fmt.Sprintf("fleet: shard %d: %d dissemination findings, first: %v: %s",
		e.Shard, len(e.Findings), e.Findings[0], e.Findings[0].Detail)
}
