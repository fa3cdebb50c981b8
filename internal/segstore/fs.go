// Package segstore is the durable epoch-segment backend: an
// append-only on-disk store of sealed per-epoch receipt segments with
// an append-only manifest log, crash-recovery replay, retention, and
// per-epoch verdict-report persistence: a sealed epoch is one file, and
// its report is filed in it, after the sealed receipts, as its compact
// record (core.AppendReportRecord), rendered to the canonical JSON when
// it is read (Store.Report). It sits
// beneath core.WindowedStore (see core.StoreBackend) so a continuous
// deployment's evidence survives process death and retention reaches
// far beyond RAM — the paper's post-hoc dispute-resolution use case
// needs receipts to still exist when the dispute is raised.
//
// Durability contract: an epoch is durable exactly when its seal is
// committed — segment synced, directory synced, one record appended to
// the manifest log and the log synced; a segment is never rewritten.
// Append and Seal hand their work to one ordered writer goroutine and
// return before it is written, so the caller's promise point is later:
// when PutReport or Close returns nil, every epoch sealed before the
// call is durable — a verdict is filed only once its evidence is — and
// PutReport's report is, once its segment's sync returns. Everything
// before the commit — blocks appended to the active segment, a torn log
// record or report block, a temp file — is discardable; everything
// after survives kill -9 at any instruction boundary. Recovery (Open)
// replays the log and re-establishes exactly its world: sealed
// segments are checksum-verified, torn tails are truncated away, and
// orphaned files are removed.
package segstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the filesystem slice the store needs, narrowed to the
// operations whose ordering the durability argument depends on. The
// production implementation is DirFS; tests substitute MemFS (pure
// in-memory) and FaultFS (fails or tears writes after a budget of
// operations) to drive the store through every crash point without a
// real disk or a real crash.
//
// All names are relative to the store's root directory; the store
// never creates subdirectories.
type FS interface {
	// OpenAppend opens name for appending, creating it if needed.
	OpenAppend(name string) (File, error)
	// ReadInto reads name's full contents into buf's storage, growing
	// it only when the file is larger, and returns the filled slice —
	// buf[:0] beside the error when the read fails. Handing the result
	// back in reads file after file through one buffer; nil allocates.
	ReadInto(name string, buf []byte) ([]byte, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// Truncate cuts name down to size bytes.
	Truncate(name string, size int64) error
	// List returns every filename in the root, sorted.
	List() ([]string, error)
	// SyncDir flushes the directory entry metadata (renames, removes)
	// to stable storage.
	SyncDir() error
}

// File is an append handle.
type File interface {
	io.Writer
	// Sync flushes the file's data to stable storage.
	Sync() error
	Close() error
}

// DirFS implements FS over one real directory.
type DirFS struct {
	dir string
}

// NewDirFS returns an FS rooted at dir, creating the directory if
// needed.
func NewDirFS(dir string) (*DirFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segstore: create data dir: %w", err)
	}
	return &DirFS{dir: dir}, nil
}

// OpenAppend implements FS.
func (f *DirFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(filepath.Join(f.dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// ReadInto implements FS. A buffer that has to grow gets an eighth of
// headroom, so a run of slightly larger files does not reallocate once
// per file.
func (f *DirFS) ReadInto(name string, buf []byte) ([]byte, error) {
	buf = buf[:0]
	file, err := os.Open(filepath.Join(f.dir, name))
	if err != nil {
		return buf, err
	}
	defer file.Close()
	// One byte beyond the size lets the last Read report EOF without
	// growing; a file that grew since Stat is still read whole.
	if info, err := file.Stat(); err == nil {
		if need := int(info.Size()) + 1; need > cap(buf) {
			buf = make([]byte, 0, need+need/8)
		}
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := file.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if errors.Is(err, io.EOF) {
			return buf, nil
		}
		if err != nil {
			return buf[:0], err
		}
	}
}

// Rename implements FS.
func (f *DirFS) Rename(oldname, newname string) error {
	return os.Rename(filepath.Join(f.dir, oldname), filepath.Join(f.dir, newname))
}

// Remove implements FS.
func (f *DirFS) Remove(name string) error {
	return os.Remove(filepath.Join(f.dir, name))
}

// Truncate implements FS.
func (f *DirFS) Truncate(name string, size int64) error {
	return os.Truncate(filepath.Join(f.dir, name), size)
}

// List implements FS.
func (f *DirFS) List() ([]string, error) {
	ents, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir implements FS: fsync on the directory makes the renames and
// removes since the last sync durable (POSIX requires the directory
// fsync for the *entry*, not just the file data).
func (f *DirFS) SyncDir() error {
	d, err := os.Open(f.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
