package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"vpm/internal/core"
	"vpm/internal/dissem"
	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// Feed is the fetch side of the transport seam: one key's payload feed.
type Feed struct {
	// HOPs are the HOPs the feed's key speaks for, ascending: each
	// payload holds one bundle of each, and a payload that fails
	// authentication, or a pruned gap, implicates them all.
	HOPs []receipt.HOPID
	// Fetch streams the bundles of the feed's payloads at positions
	// ≥ since to fn, in order, and returns the position after the last
	// payload fn consumed.
	Fetch func(ctx context.Context, since uint64, fn func(*dissem.Bundle) error) (next uint64, err error)
}

// Store is the store seam: the HOPs that must seal an epoch before it
// is judged, the verified epochs kept in RAM, and the durable backend
// beneath the window (nil: RAM only).
type Store struct {
	HOPs      []receipt.HOPID
	Retention int
	Backend   core.StoreBackend
}

// Checks is the verifier seam: the check configuration and the layouts
// keys verify against — one Layout for every key on a linear path,
// KeyLayouts per key (and ECMP route) on a mesh. Confidence 0 means
// 0.95.
type Checks struct {
	Config     core.VerifierConfig
	Layout     core.Layout
	KeyLayouts map[packet.PathKey][]core.Layout
	Confidence float64
}

// Verify is the verify half: a windowed store fed from the transport
// and a rolling verifier over it.
type Verify struct {
	// Feeds are drained, in order, at every step. Leave empty when the
	// collect half publishes straight into Window.Sink.
	Feeds []Feed
	// OnEpoch, if set, receives each report as its epoch is verified —
	// from the goroutine running the step.
	OnEpoch func(core.EpochReport, core.WindowStats)
	// Findings are the dissemination-layer misbehaviours classified
	// into blame instead of aborting: bad signatures, stale replays,
	// pruned-cursor gaps and, once the stream has ended, the bundles
	// whose absence left an epoch unverifiable.
	Findings []core.Blame
	// Epochs, Violations and MatchedSamples tally the reports.
	Epochs, Violations int
	MatchedSamples     int64
	// Window is the store the half verifies over. Its Sink is the
	// degenerate transport: handed to NewCollect, publishing a sealed
	// (HOP, epoch) is ingesting and sealing it, and no feed is needed.
	Window *core.WindowedStore

	rolling *core.RollingVerifier
	layout  core.Layout
	cursors []uint64
	// want is the cursor at which a feed is complete and before the
	// bound below which epochs verify; both are unbounded unless Run
	// knows the terminal epoch.
	want   uint64
	before core.EpochID
}

// NewVerify builds the verify half over the two seams.
func NewVerify(st Store, ck Checks) (*Verify, error) {
	win, err := core.NewWindowedStore(st.HOPs, st.Retention)
	if err != nil {
		return nil, err
	}
	if st.Backend != nil {
		win.AttachBackend(st.Backend)
	}
	rolling := core.NewRollingVerifier(ck.Layout, ck.Config, win, nil, ck.Confidence)
	if ck.KeyLayouts != nil {
		rolling.SetKeyLayouts(ck.KeyLayouts)
	}
	return &Verify{Window: win, rolling: rolling, layout: ck.Layout, want: ^uint64(0), before: ^core.EpochID(0)}, nil
}

// Run is the verify half alone, for a stream sealed elsewhere whose
// terminal epoch is known up front: every feed carries exactly one
// payload per epoch, so a feed is complete at cursor terminal+1 —
// completion is a position, not a negotiation. Steps repeat, waiting
// poll after one that consumed nothing, with epochs ≥ terminal−1 held
// (the stream-end rule) until every feed is complete.
func (v *Verify) Run(ctx context.Context, terminal core.EpochID, poll time.Duration) error {
	v.want = uint64(terminal) + 1
	v.before = 0
	if terminal > 0 {
		v.before = terminal - 1
	}
	for {
		progressed, err := v.step(ctx)
		if err != nil {
			return err
		}
		if v.complete() {
			return v.finish(ctx)
		}
		if !progressed {
			if err := Sleep(ctx, poll); err != nil {
				return err
			}
		}
	}
}

// complete reports whether every feed has reached want.
func (v *Verify) complete() bool {
	for i := range v.Feeds {
		if v.cursors[i] < v.want {
			return false
		}
	}
	return true
}

// finish ends the stream: it is declared over, nothing is held back
// any longer, one last step verifies what remains, and whatever is
// still unverified is blamed on the HOPs that never sealed it — every
// other HOP's bundle arrived, so the missing seals are the narrowest
// implicated set.
func (v *Verify) finish(ctx context.Context) error {
	v.Window.FinishStream()
	v.before = ^core.EpochID(0)
	if _, err := v.step(ctx); err != nil {
		return err
	}
	for _, e := range v.Window.UnverifiedEpochs() {
		for _, h := range v.Window.MissingSeals(e) {
			v.blame(e, core.EvWithheldBundle, []receipt.HOPID{h}, 1, fmt.Sprintf("epoch %d never sealed: no bundle from %v", e, h))
		}
	}
	return nil
}

// step is the drain-and-verify step: drain every incomplete feed into
// the window, verify the epochs that are ready (and not held), evict
// what has aged out. It reports whether any feed advanced.
func (v *Verify) step(ctx context.Context) (progressed bool, err error) {
	if v.cursors == nil {
		v.cursors = make([]uint64, len(v.Feeds))
	}
	for i := range v.Feeds {
		if v.cursors[i] >= v.want {
			continue
		}
		if err := ctx.Err(); err != nil {
			return progressed, err
		}
		since := v.cursors[i]
		if err := v.drain(ctx, i); err != nil {
			return progressed, err
		}
		progressed = progressed || v.cursors[i] != since
	}
	reps, err := v.rolling.VerifyReadyBefore(v.before)
	for _, rep := range reps {
		v.Epochs++
		v.Violations += rep.Violations()
		v.MatchedSamples += rep.MatchedSamples()
		if v.OnEpoch != nil {
			v.OnEpoch(rep, v.Window.Stats())
		}
	}
	if err != nil {
		return progressed, err
	}
	v.Window.Evict()
	return progressed, nil
}

// drain fetches feed i from its cursor — the server's log position, on
// every carrier — until the feed has nothing more. A payload that fails
// authentication or a cursor that reaches into a pruned range is one
// finding against every HOP of the feed and the cursor moves past it;
// any other fetch error aborts.
func (v *Verify) drain(ctx context.Context, i int) error {
	f := &v.Feeds[i]
	for {
		next, err := f.Fetch(ctx, v.cursors[i], v.consume)
		v.cursors[i] = next
		var be *dissem.BundleError
		var gap *dissem.GapError
		switch {
		case err == nil:
			return nil
		case errors.As(err, &be):
			v.blame(core.EpochID(be.Epoch), core.EvSignature, f.HOPs, 1, err.Error())
			v.cursors[i] = be.Seq + 1
		case errors.As(err, &gap):
			v.blame(0, core.EvBundleGap, f.HOPs, int(gap.Base-gap.Since), err.Error())
			v.cursors[i] = gap.Base
		default:
			return err
		}
	}
}

// consume files one authenticated bundle: ingest, then seal — one
// bundle is one HOP's whole epoch. A bundle for a (HOP, epoch) already
// sealed, or for an epoch already evicted, is replay evidence against
// its origin and counts as consumed.
func (v *Verify) consume(b *dissem.Bundle) error {
	err := v.Window.IngestBundle(b)
	var stale *core.StaleSealError
	if errors.As(err, &stale) || errors.Is(err, core.ErrEvictedEpoch) {
		v.blame(core.EpochID(b.Epoch), core.EvEpochReplay, []receipt.HOPID{b.Origin}, 1, err.Error())
		return nil
	}
	if err != nil {
		return err
	}
	return v.Window.SealHOP(b.Origin, core.EpochID(b.Epoch))
}

func (v *Verify) blame(e core.EpochID, ev core.EvidenceClass, hops []receipt.HOPID, count int, detail string) {
	v.Findings = append(v.Findings, core.BlameHOPs(v.layout, e, ev, hops, count, detail))
}
