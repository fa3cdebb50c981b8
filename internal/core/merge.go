package core

import (
	"errors"
	"fmt"
	"sort"
)

// Verdict merge: recombining one epoch's per-shard partial reports
// into the union report a single-process verifier would have emitted.
// MergeEpochReports is the struct-level statement of that merge and
// the oracle for the one production merge, fleet.MergeShardOutputs,
// which does the same ordering on the reports' encoded per-key
// fragments without decoding them; nothing outside tests calls it.
//
// The fleet's verifier tier splits the key space across processes, so
// each shard's EpochReport covers a disjoint subset of the epoch's
// traffic keys. Per-key verification reads only that key's receipts
// (restricted verifiers never touch foreign indexes), so a shard's
// per-key reports are bit-for-bit the ones the whole-store verifier
// computes — recovering the union is purely an ordering problem. A
// single-process report lists keys in claims.Keys() order (PathKey
// order, routes in layout order within a key), so sorting the
// concatenated shard entries by (key, route) reproduces the exact
// sequence, and EncodeEpochReport of the merge is byte-identical to
// the single-process encoding at any shard count.

// ErrBadMerge reports per-shard epoch reports that cannot form one
// union report: mismatched epochs, a (key, route) claimed by two
// shards, or sequential (SPRT) verdicts, whose engine state is global
// across keys and cannot be recombined from key slices.
var ErrBadMerge = errors.New("core: epoch reports not mergeable")

// MergeEpochReports merges one epoch's per-shard partial reports into
// the union report — the test oracle fleet.MergeShardOutputs is pinned
// to, not a second production merge. All parts must cover the same epoch and disjoint
// (key, route) sets, and none may carry sequential verdicts (fleet
// shards run with the SPRT arm off); violations return an error
// wrapping ErrBadMerge. Parts may be empty (a shard that owned no keys
// with traffic this epoch); an all-empty merge yields the same empty
// report a single process emits for an idle epoch.
func MergeEpochReports(parts []EpochReport) (EpochReport, error) {
	if len(parts) == 0 {
		return EpochReport{}, fmt.Errorf("%w: no parts", ErrBadMerge)
	}
	out := EpochReport{Epoch: parts[0].Epoch}
	n := 0
	for i := range parts {
		if parts[i].Epoch != out.Epoch {
			return EpochReport{}, fmt.Errorf("%w: part covers epoch %d, want %d", ErrBadMerge, parts[i].Epoch, out.Epoch)
		}
		if len(parts[i].Seq) > 0 {
			return EpochReport{}, fmt.Errorf("%w: part for epoch %d carries sequential verdicts", ErrBadMerge, out.Epoch)
		}
		n += len(parts[i].Keys)
	}
	if n == 0 {
		// Keep Keys nil, not empty: the canonical encoding of an idle
		// epoch spells null, and the merge must reproduce it.
		return out, nil
	}
	out.Keys = make([]EpochKeyReport, 0, n)
	for i := range parts {
		out.Keys = append(out.Keys, parts[i].Keys...)
	}
	sort.Slice(out.Keys, func(i, j int) bool {
		if c := out.Keys[i].Key.Compare(out.Keys[j].Key); c != 0 {
			return c < 0
		}
		return out.Keys[i].Route < out.Keys[j].Route
	})
	for i := 1; i < len(out.Keys); i++ {
		if out.Keys[i].Key == out.Keys[i-1].Key && out.Keys[i].Route == out.Keys[i-1].Route {
			return EpochReport{}, fmt.Errorf("%w: key %v route %d reported by two shards", ErrBadMerge, out.Keys[i].Key, out.Keys[i].Route)
		}
	}
	return out, nil
}
