package fleet

import (
	"context"

	"vpm/internal/core"
	"vpm/internal/engine"
)

// RunReference runs the whole world in-process — both engine halves,
// every HOP and every key, sealed epochs ingested directly — and
// returns the complete epoch report stream. This is the ground truth
// the fleet must reproduce: for any shard count, merging the shards'
// reports epoch by epoch yields encodings byte-identical to these (the
// acceptance bar, asserted by tests and the bench gate). It closes at
// the same spec-derived terminal the fleet's collectors do, or the
// final empty epochs' reports would differ.
//
// Like a collector, it deploys w's plan with collectors of its own, so
// w stays reusable.
func RunReference(w *World, chunkSlots int64) ([]core.EpochReport, error) {
	dep, err := w.Plan.Deploy()
	if err != nil {
		return nil, err
	}
	ver, err := engine.NewVerify(
		engine.Store{HOPs: w.HOPs, Retention: windowRetention},
		engine.Checks{Config: w.Plan.VerifierConfig(), KeyLayouts: w.Plan.KeyLayouts()})
	if err != nil {
		return nil, err
	}
	var reports []core.EpochReport
	ver.OnEpoch = func(rep core.EpochReport, _ core.WindowStats) { reports = append(reports, rep) }
	col, err := engine.NewCollect(dep, w.HOPs, w.Spec.IntervalNS, w.Terminal, ver.Window.Sink())
	if err != nil {
		return nil, err
	}
	sim, err := engine.NewSim(w.Topo, w.Table, nil)
	if err != nil {
		return nil, err
	}
	if err := col.Run(context.TODO(), w.segments(chunkSlots), sim, ver); err != nil {
		return nil, err
	}
	return reports, nil
}
