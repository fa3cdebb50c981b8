package lib

import "testing"

func TestReset(t *testing.T) {
	tb := New("x")
	tb.Hits++
	tb.Reset()
	if tb.String() != "" {
		t.Fatal(tb)
	}
}
