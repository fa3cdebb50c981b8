// Package intern provides a tiny byte-string interning table. The hot
// receipt pipeline renders the same identifiers over and over — store
// keys, CIDR prefixes, HOP names — and every naive render allocates a
// fresh string. Interning returns one canonical string per distinct
// byte content: the first render pays the allocation, every later
// render is a map hit that allocates nothing (the Go compiler elides
// the []byte→string conversion in map lookups).
//
// Tables are bounded: past maxEntries the table stops admitting new
// strings and hands back ordinary copies, so adversarial key churn
// cannot grow the table without bound (the same reason the receipt
// store windows its epochs).
package intern

import "sync"

// maxEntries bounds a table; see the package comment.
const maxEntries = 1 << 16

// Table interns byte strings. The zero value is ready to use; a Table
// is safe for concurrent use.
type Table struct {
	mu sync.RWMutex
	m  map[string]string
}

// Bytes returns the canonical string equal to b. On a hit no
// allocation happens; on a miss the string is copied once and cached
// (unless the table is full, in which case a plain copy is returned).
func (t *Table) Bytes(b []byte) string {
	t.mu.RLock()
	s, ok := t.m[string(b)] // compiler avoids allocating for the lookup key
	t.mu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[string]string)
	}
	if cached, ok := t.m[s]; ok {
		s = cached // lost the race: keep the first canonical copy
	} else if len(t.m) < maxEntries {
		t.m[s] = s
	}
	t.mu.Unlock()
	return s
}

// global is the process-wide table behind the package-level helpers.
var global Table

// Bytes interns b in the process-wide table.
func Bytes(b []byte) string { return global.Bytes(b) }
