package fleet

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"vpm/internal/core"
	"vpm/internal/dissem"
	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// Verifier is one shard of the fleet's verifier tier. It polls every
// collector's bundle feeds, keeps only the receipts whose traffic key
// it owns on the consistent-hash ring, and runs the windowed store +
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
	world   *World
	ring    *Ring
	shard   int
	win     *core.WindowedStore
	rolling *core.RollingVerifier
}

// VerifierOptions tunes the shard's fetch loop.
type VerifierOptions struct {
	// Retry bounds each collector fetch. Zero value means
	// dissem.DefaultRetryPolicy.
	Retry dissem.RetryPolicy
	// Poll is the idle wait between sweeps that found no new bundles.
	// 0 means 20ms.
	Poll time.Duration
	// Retention is the windowed store's verified-epoch retention.
	// 0 means 3 — the ±1 evidence window plus one epoch of slack.
	Retention int
	// HTTP optionally overrides the fetch client (timeouts, transports).
	HTTP *http.Client
}

// NewVerifier builds shard `shard` of a `shards`-wide verifier tier.
// Every shard must be built with the same shards count or ownership
// splits inconsistently.
func NewVerifier(w *World, shards, shard int, opts VerifierOptions) (*Verifier, error) {
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("fleet: shard %d outside [0, %d)", shard, shards)
	}
	ring, err := NewRing(shards)
	if err != nil {
		return nil, err
	}
	retention := opts.Retention
	if retention <= 0 {
		retention = 3
	}
	win, err := core.NewWindowedStore(w.HOPs, retention)
	if err != nil {
		return nil, err
	}
	v := &Verifier{world: w, ring: ring, shard: shard, win: win}
	v.rolling = core.NewRollingVerifier(core.Layout{}, w.VerifierConfig(), win, nil, 0.95)
	// Only owned keys get layouts — at fleet scale the layout map is
	// the dominant allocation, and a shard needs 1/shards of it.
	v.rolling.SetKeyLayouts(w.Dep.KeyLayoutsFor(func(k packet.PathKey) bool {
		return ring.OwnerKey(k) == shard
	}))
	return v, nil
}

// filterBundle strips b down to the receipts whose traffic key this
// shard owns. The bundle's identity (origin, seq, epoch) is preserved:
// a filtered-to-empty bundle still seals its (HOP, epoch).
func (v *Verifier) filterBundle(b *dissem.Bundle) *dissem.Bundle {
	out := &dissem.Bundle{Origin: b.Origin, Seq: b.Seq, Epoch: b.Epoch}
	for _, r := range b.Samples {
		if v.ring.OwnerKey(r.Path.Key) == v.shard {
			out.Samples = append(out.Samples, r)
		}
	}
	for _, r := range b.Aggs {
		if v.ring.OwnerKey(r.Path.Key) == v.shard {
			out.Aggs = append(out.Aggs, r)
		}
	}
	return out
}

// Run polls the collector base URLs until every HOP's feed is fully
// consumed — each HOP publishes exactly Terminal+1 bundles (one per
// epoch), so completion is a deterministic cursor position, not a
// negotiation — verifying epochs as they become ready and evicting
// behind the retention window. Returns this shard's epoch reports in
// ascending epoch order.
//
// Collectors retain all bundles, so a restarted shard re-fetches from
// cursor zero and reproduces its exact output: crash recovery is
// replay.
func (v *Verifier) Run(ctx context.Context, collectorURLs []string, opts VerifierOptions) ([]core.EpochReport, error) {
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
	client := &dissem.Client{
		HTTP:     opts.HTTP,
		Registry: v.world.Registry(),
		Viewer:   fmt.Sprintf("shard-%d", v.shard),
	}

	// One feed per (collector, HOP); done when the cursor reaches the
	// bundle count every HOP is guaranteed to publish.
	type feed struct {
		url    string
		hop    receipt.HOPID
		cursor uint64
	}
	var feeds []*feed
	for ci, base := range collectorURLs {
		for _, h := range v.world.OwnedHOPs(ci) {
			feeds = append(feeds, &feed{url: fmt.Sprintf("%s/hop/%d/receipts", base, h), hop: h})
		}
	}
	want := uint64(v.world.Terminal) + 1

	var reports []core.EpochReport
	for {
		progressed := false
		remaining := 0
		for _, f := range feeds {
			if f.cursor >= want {
				continue
			}
			remaining++
			err := dissem.Retry(ctx, retry, func() error {
				return client.FetchEach(ctx, f.url, f.hop, f.cursor, func(b *dissem.Bundle) error {
					if err := v.win.IngestBundle(v.filterBundle(b)); err != nil {
						// A duplicate (HOP, epoch) in one feed is
						// publisher misbehavior; no retry fixes it.
						return dissem.Permanent(err)
					}
					if err := v.win.SealHOP(b.Origin, core.EpochID(b.Epoch)); err != nil {
						return dissem.Permanent(err)
					}
					f.cursor = b.Seq + 1
					progressed = true
					return nil
				})
			})
			if err != nil {
				return reports, fmt.Errorf("fleet: shard %d: feed %s: %w", v.shard, f.url, err)
			}
		}
		if remaining == 0 {
			break
		}
		// Verify incrementally, but keep the final two epochs for after
		// FinishStream: epoch Terminal only seals at the collectors'
		// CloseAt, so the single-process reference necessarily verifies
		// Terminal−1 and Terminal post-finish — with the stream-end
		// (tailComplete) evidence rule in effect. Verifying them early
		// here would produce different (equally sound, but not
		// byte-identical) reports for the tail epochs.
		for _, e := range v.win.Ready() {
			if e+1 >= v.world.Terminal {
				break
			}
			rep, err := v.rolling.VerifyEpoch(e)
			if err != nil {
				return reports, err
			}
			reports = append(reports, rep)
		}
		v.win.Evict()
		if !progressed {
			select {
			case <-ctx.Done():
				return reports, ctx.Err()
			case <-time.After(poll):
			}
		}
	}
	// All feeds drained: the final epoch needs the stream declared over
	// before it can verify (no successor epoch will seal).
	v.win.FinishStream()
	reps, err := v.rolling.VerifyReady()
	reports = append(reports, reps...)
	if err != nil {
		return reports, err
	}
	v.win.Evict()
	return reports, nil
}
