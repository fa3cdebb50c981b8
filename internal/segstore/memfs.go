package segstore

import (
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
