package segstore

import (
	"errors"
	"fmt"
	"sync"
)

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
