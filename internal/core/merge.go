package core

import "errors"

// ErrBadMerge reports per-shard epoch reports that cannot form one
// union report: mismatched epochs, a (key, route) claimed by two
// shards, or sequential (SPRT) verdicts, whose engine state is global
// across keys and cannot be recombined from key slices. The merge
// itself is fleet.MergeShardOutputs: a shard's per-key reports are bit
// for bit the ones a whole-store verifier computes (restricted
// verifiers never touch foreign indexes), so recovering the union is
// purely an ordering problem — sort the shards' entries by (key,
// route), the order a single-process report lists them in.
var ErrBadMerge = errors.New("core: epoch reports not mergeable")
