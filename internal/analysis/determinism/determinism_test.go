package determinism_test

import (
	"testing"

	"vpm/internal/analysis/analysistest"
	"vpm/internal/analysis/determinism"
)

// TestDeterminism drives the pass over the fixture package: unsorted
// map-range appends, in-loop writes/sends, wall clocks and global RNG
// must be flagged; the collect-then-sort idiom, loop-local state,
// seeded sources and justified suppressions must not. The adversary
// fixture holds that the attacks are in scope.
func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", determinism.Analyzer, "core", "adversary")
}
