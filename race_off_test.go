//go:build !race

package vpm

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
