//go:build race

package dissem

// raceEnabled reports whether the race detector is compiled in; it
// slows decoding several times more than ed25519's arithmetic, so cost
// ratios between the two are not asserted under it.
const raceEnabled = true
