//go:build !race

package dissem

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
