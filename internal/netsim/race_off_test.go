//go:build !race

package netsim

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
