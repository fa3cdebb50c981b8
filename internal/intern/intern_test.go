package intern

import (
	"fmt"
	"testing"
)

func TestCanonical(t *testing.T) {
	var tab Table
	a := tab.Bytes([]byte("HOP4 10.1.0.0/16->172.16.0.0/16"))
	b := tab.Bytes([]byte("HOP4 10.1.0.0/16->172.16.0.0/16"))
	if a != b {
		t.Fatal("contents differ")
	}
	if got := tab.String("HOP4 10.1.0.0/16->172.16.0.0/16"); got != a {
		t.Fatal("String and Bytes disagree")
	}
	if tab.Len() != 1 {
		t.Fatalf("table holds %d entries, want 1", tab.Len())
	}
}

func TestHitPathZeroAlloc(t *testing.T) {
	var tab Table
	key := []byte("HOP7 10.2.0.0/16->172.16.0.0/16")
	tab.Bytes(key)
	allocs := testing.AllocsPerRun(100, func() {
		if s := tab.Bytes(key); len(s) == 0 {
			t.Fatal("empty")
		}
	})
	if allocs != 0 {
		t.Fatalf("interned hit allocated %.1f times per call", allocs)
	}
}

func TestBounded(t *testing.T) {
	var tab Table
	for i := 0; i < maxEntries+100; i++ {
		tab.Bytes([]byte(fmt.Sprintf("key-%d", i)))
	}
	if tab.Len() > maxEntries {
		t.Fatalf("table grew to %d entries past the %d bound", tab.Len(), maxEntries)
	}
	// A full table still answers correctly.
	if got := tab.Bytes([]byte("overflow-key")); got != "overflow-key" {
		t.Fatalf("full table returned %q", got)
	}
}

func TestGlobalHelpers(t *testing.T) {
	a := Bytes([]byte("global-key"))
	if b := global.String("global-key"); b != a {
		t.Fatal("global helpers disagree")
	}
}

// String returns the canonical string equal to s.
func (t *Table) String(s string) string {
	t.mu.RLock()
	c, ok := t.m[s]
	t.mu.RUnlock()
	if ok {
		return c
	}
	return t.Bytes([]byte(s))
}

// Len returns the number of interned strings.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}
