//go:build race

package segstore

// raceEnabled reports whether the race detector is compiled in; under
// it sync.Pool drops Puts at random, so exact allocation counts are
// skipped.
const raceEnabled = true
