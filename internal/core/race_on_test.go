//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; under
// it allocation counts carry the detector's own objects, so they are
// not held to budgets.
const raceEnabled = true
