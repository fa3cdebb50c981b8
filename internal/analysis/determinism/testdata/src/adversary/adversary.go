// Package adversary is a determinism fixture: attacks are in scope.
package adversary

// Taps forges in map order: every replay would publish differently.
func Taps(taps map[uint32]bool) []uint32 {
	var out []uint32
	for h := range taps {
		out = append(out, h) // want `appending to out inside a map range leaks map iteration order`
	}
	return out
}
