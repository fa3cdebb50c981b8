//go:build !race

package segstore

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
