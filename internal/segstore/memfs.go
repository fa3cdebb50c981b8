package segstore

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"sync"
)

// MemFS is an in-memory FS for tests and benchmarks: the same
// byte-level semantics as a directory (append, rename-replace,
// truncate) with none of the disk. The crash-point property test
// pairs it with FaultFS — whatever bytes landed before the injected
// fault are exactly the bytes a reopened store sees, standing in for
// the surviving on-disk state after kill -9.
type MemFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

// NewMemFS returns an empty in-memory FS.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string][]byte)}
}

// Snapshot returns a deep copy of the current file set — the "disk
// image" a crash would leave behind.
func (m *MemFS) Snapshot() map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]byte, len(m.files))
	for name, data := range m.files {
		out[name] = append([]byte(nil), data...)
	}
	return out
}

// memFile is an append handle onto a MemFS entry.
type memFile struct {
	fs   *MemFS
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	return len(p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

// OpenAppend implements FS.
func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		m.files[name] = nil
	}
	return &memFile{fs: m, name: name}, nil
}

// ReadInto implements FS.
func (m *MemFS) ReadInto(name string, buf []byte) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return buf[:0], &fs.PathError{Op: "read", Path: name, Err: fs.ErrNotExist}
	}
	return append(buf[:0], data...), nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	m.files[newname] = data
	delete(m.files, oldname)
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

// Truncate implements FS.
func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return &fs.PathError{Op: "truncate", Path: name, Err: fs.ErrNotExist}
	}
	if size < 0 || size > int64(len(data)) {
		return fmt.Errorf("segstore: truncate %s to %d outside [0,%d]", name, size, len(data))
	}
	m.files[name] = data[:size]
	return nil
}

// List implements FS.
func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir implements FS.
func (m *MemFS) SyncDir() error { return nil }

// ErrInjectedFault is the error every FaultFS-induced failure wraps,
// so tests can distinguish injected faults from real bugs.
var ErrInjectedFault = errors.New("segstore: injected fault")

// FaultFS wraps an FS and fails after a budget of mutating operations
// (writes, syncs, renames, removes, truncates) — the crash-point
// injector. Every mutating call decrements the budget; the call that
// exhausts it fails, and so does everything after, simulating a
// process that died at exactly that point. A write that exhausts the
// budget is *torn*: a prefix of its bytes is applied before the error,
// exercising the torn-tail truncation path in recovery.
//
// Reads do not spend the budget: recovery runs against the wrapped FS
// directly, the way a restarted process reads the surviving disk. The
// transient read error (EIO, EMFILE) is injected by name instead, with
// FailRead.
type FaultFS struct {
	mu sync.Mutex
	fs FS
	// remaining is the mutating-operation budget; -1 once tripped.
	remaining int
	tripped   bool
	// failRead is the file whose reads fail, "" for none.
	failRead string
}

// NewFaultFS wraps inner, allowing budget mutating operations before
// every subsequent one fails.
func NewFaultFS(inner FS, budget int) *FaultFS {
	return &FaultFS{fs: inner, remaining: budget}
}

// Tripped reports whether the injected crash point has been reached.
func (f *FaultFS) Tripped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tripped
}

// spend consumes one operation from the budget, reporting whether the
// operation may proceed. The exhausting operation itself fails.
func (f *FaultFS) spend() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tripped || f.remaining <= 0 {
		f.tripped = true
		return false
	}
	f.remaining--
	return true
}

type faultFile struct {
	f    *FaultFS
	file File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if !ff.f.spend() {
		// Torn write: half the bytes land, then the "crash".
		n := len(p) / 2
		if n > 0 {
			ff.file.Write(p[:n])
		}
		return n, fmt.Errorf("%w: torn write after %d/%d bytes", ErrInjectedFault, n, len(p))
	}
	return ff.file.Write(p)
}

func (ff *faultFile) Sync() error {
	if !ff.f.spend() {
		return fmt.Errorf("%w: sync", ErrInjectedFault)
	}
	return ff.file.Sync()
}

func (ff *faultFile) Close() error { return ff.file.Close() }

// OpenAppend implements FS.
func (f *FaultFS) OpenAppend(name string) (File, error) {
	file, err := f.fs.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, file: file}, nil
}

// FailRead makes every read of name fail with an error wrapping
// ErrInjectedFault — the file is there and intact, the read is not
// getting through. "" clears it.
func (f *FaultFS) FailRead(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failRead = name
}

// ReadInto implements FS; it fails, with an error wrapping
// ErrInjectedFault, only for the file named to FailRead.
func (f *FaultFS) ReadInto(name string, buf []byte) ([]byte, error) {
	f.mu.Lock()
	fail := name != "" && name == f.failRead
	f.mu.Unlock()
	if fail {
		return buf[:0], fmt.Errorf("%w: read %s", ErrInjectedFault, name)
	}
	return f.fs.ReadInto(name, buf)
}

// Rename implements FS; an exhausted budget returns an error wrapping
// ErrInjectedFault.
func (f *FaultFS) Rename(oldname, newname string) error {
	if !f.spend() {
		return fmt.Errorf("%w: rename %s", ErrInjectedFault, oldname)
	}
	return f.fs.Rename(oldname, newname)
}

// Remove implements FS; an exhausted budget returns an error wrapping
// ErrInjectedFault.
func (f *FaultFS) Remove(name string) error {
	if !f.spend() {
		return fmt.Errorf("%w: remove %s", ErrInjectedFault, name)
	}
	return f.fs.Remove(name)
}

// Truncate implements FS; an exhausted budget returns an error
// wrapping ErrInjectedFault.
func (f *FaultFS) Truncate(name string, size int64) error {
	if !f.spend() {
		return fmt.Errorf("%w: truncate %s", ErrInjectedFault, name)
	}
	return f.fs.Truncate(name, size)
}

// List implements FS (never failed).
func (f *FaultFS) List() ([]string, error) { return f.fs.List() }

// SyncDir implements FS; an exhausted budget returns an error
// wrapping ErrInjectedFault.
func (f *FaultFS) SyncDir() error {
	if !f.spend() {
		return fmt.Errorf("%w: syncdir", ErrInjectedFault)
	}
	return f.fs.SyncDir()
}
