package vpm

// This file holds the module's one type-checked view and the lint gate
// that reads it. loadModule type-checks every package of the module,
// tests included, once per test binary; the analyzers below and the
// root guards (engine_check_test.go, docs_check_test.go) all resolve
// names through that view's types.Info.

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"vpm/internal/analysis"
	"vpm/internal/analysis/determinism"
	"vpm/internal/analysis/errwrap"
	"vpm/internal/analysis/fsyncdiscipline"
	"vpm/internal/analysis/hotpath"
	"vpm/internal/analysis/loader"
)

// analyzers are the verifiability passes, in report order:
//
//	determinism     map order / wall clock / global RNG leaks in
//	                replay-deterministic packages
//	errwrap         errors.Is/As discipline for typed sentinels
//	fsyncdiscipline segstore's write-temp → fsync → rename → fsync-dir
//	                commit sequence
//	hotpath         allocation idioms reachable from //vpm:hotpath
var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	errwrap.Analyzer,
	fsyncdiscipline.Analyzer,
	hotpath.Analyzer,
}

var module struct {
	once sync.Once
	pkgs []*loader.Package
	err  error
}

// loadModule returns the module's packages, tests included, each
// type-checked once per test binary. File names are relative to the
// module root and slash-separated. Every test that reads the view is
// parallel, so it runs after the package's sequential tests: the view
// is about 100 MB of pointers, and the allocation-heavy paper runs
// would otherwise mark it on every GC cycle (BENCH_4 took 50 % longer
// on 2 vCPUs).
func loadModule(t *testing.T) []*loader.Package {
	t.Helper()
	module.once.Do(func() {
		module.pkgs, module.err = loader.Load(&loader.Config{Dir: ".", ModulePath: "vpm", Tests: true}, "./...")
	})
	if module.err != nil {
		t.Fatalf("loading the module: %v", module.err)
	}
	return module.pkgs
}

// isTestFile reports whether name is a _test.go file.
func isTestFile(name string) bool { return strings.HasSuffix(name, "_test.go") }

// TestTreeIsClean is the lint gate: every analyzer over the whole
// module must produce zero live findings. Suppressions need a justified
// //lint:ignore, which keeps the waiver trail reviewable in the diff.
func TestTreeIsClean(t *testing.T) {
	t.Parallel()
	pkgs := loadModule(t)
	findings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if !f.Suppressed {
			t.Error(f)
		}
	}
}

// TestSeededViolationFails seeds one violation per analyzer into a
// scratch module, in the shapes of the analyzers' testdata suites, and
// one //lint:ignore without a justification: each must come back live,
// with its position, the analyzer's name and its fix hint.
func TestSeededViolationFails(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	files := map[string]string{
		"core/core.go": `package core

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
		"errfix/errfix.go": `package errfix

import "errors"

// ErrTorn is a sentinel.
var ErrTorn = errors.New("errfix: torn tail")

func Torn(err error) bool {
	return err == ErrTorn
}
`,
		"segstore/segstore.go": `package segstore

type FS interface {
	OpenAppend(name string) (File, error)
	Rename(oldname, newname string) error
	SyncDir() error
}

type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

func Commit(fsys FS, data []byte) error {
	f, err := fsys.OpenAppend("MANIFEST.tmp")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	f.Close()
	if err := fsys.Rename("MANIFEST.tmp", "MANIFEST"); err != nil {
		return err
	}
	return fsys.SyncDir()
}
`,
		"hot/hot.go": `package hot

type Collector struct{ name string }

// Observe is the per-packet entry point.
//
//vpm:hotpath
func (c *Collector) Observe(id uint64) string {
	//lint:ignore hotpath
	return "pkt:" + c.name
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := loader.Load(&loader.Config{Dir: dir, ModulePath: "scratch", Tests: true}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ analyzer, at, message, fix string }{
		{"determinism", "core/core.go:5:", "time.Now", "take timestamps from the observation stream"},
		{"errwrap", "errfix/errfix.go:9:", "compared with ==", "use errors.Is(err, ErrTorn)"},
		{"fsyncdiscipline", "segstore/segstore.go:24:", "Rename without a preceding file Sync", "commit via write-temp"},
		{"hotpath", "hot/hot.go:10:", "string concatenation", "append bytes into a recycled buffer"},
		{"lint", "hot/hot.go:9:", "malformed //lint:ignore", "write //lint:ignore"},
	}
	for _, w := range want {
		i := slices.IndexFunc(findings, func(f analysis.Finding) bool {
			return f.Analyzer == w.analyzer && strings.HasPrefix(f.Pos.String(), filepath.Join(dir, w.at))
		})
		if i < 0 {
			t.Errorf("no %s finding at %s; got:\n%v", w.analyzer, w.at, findings)
			continue
		}
		f := findings[i]
		if f.Suppressed || !strings.Contains(f.Message, w.message) || !strings.Contains(f.Fix, w.fix) {
			t.Errorf("%s finding = %s, want a live %q with fix %q", w.analyzer, f, w.message, w.fix)
		}
	}
	if len(findings) != len(want) {
		t.Errorf("%d findings, want %d:\n%v", len(findings), len(want), findings)
	}
}

// TestAnalyzerMetadata: every analyzer has a unique name (what
// //lint:ignore directives and findings call it), a doc and a Run hook.
func TestAnalyzerMetadata(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range analyzers {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing name, doc or run hook", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) < 4 {
		t.Errorf("%d analyzers, want the 4 verifiability passes", len(seen))
	}
}

// TestEveryAnalyzerHasATestdataSuite: an analyzer without an
// analysistest fixture ships unverified diagnostics. Each one lives in
// internal/analysis/<name>/ with a testdata/src tree next to its test.
func TestEveryAnalyzerHasATestdataSuite(t *testing.T) {
	for _, a := range analyzers {
		entries, err := os.ReadDir(filepath.Join("internal", "analysis", a.Name, "testdata", "src"))
		if err != nil {
			t.Errorf("analyzer %q has no testdata suite: %v", a.Name, err)
			continue
		}
		if len(entries) == 0 {
			t.Errorf("analyzer %q has an empty testdata/src", a.Name)
		}
	}
}
