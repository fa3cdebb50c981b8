//go:build race

package vpm

// raceEnabled reports whether the race detector is compiled in; under
// it sync.Pool drops a random share of what is put back, so allocation
// counts are inflated by a varying amount and not held to budgets.
const raceEnabled = true
