// Package loader type-checks this module's packages for the analyzers
// and the root package's guards using only the standard library. It is
// the offline, dependency-free slice of golang.org/x/tools/go/packages
// that this repository needs: the module has no external requirements,
// so every import resolves either inside the module itself, in
// GOROOT/src, or in GOROOT/src/vendor — all of which go/build and
// go/types can load from source without network access or export data.
//
// The loader exists so the analyzers in internal/analysis, and the
// root package's guards that share one load with them (go test -run
// TestTreeIsClean .), get real *types.Info (map-ness of a ranged
// expression, string-ness of a `+`, which method a selector resolves
// to) rather than guessing from syntax. Packages the patterns name are
// "targets": their syntax is retained (with comments, so //vpm:hotpath
// and //lint:ignore directives are visible) and their in-package and
// external test files are included; packages reached only through
// imports are type-checked for their exported API and discarded.
package loader

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded target package, ready for analysis.
type Package struct {
	// PkgPath is the import path ("vpm/internal/core"); external test
	// packages carry the real compiler path ("vpm/internal/core_test").
	PkgPath string
	// Dir is the directory holding the package's files.
	Dir string
	// Fset positions every file in the package (shared loader-wide).
	Fset *token.FileSet
	// Files is the parsed syntax, comments included. For a non-test
	// target this is GoFiles + in-package test files.
	Files []*ast.File
	// Types and Info are the go/types results.
	Types *types.Package
	Info  *types.Info
}

// Config parameterizes a Load.
type Config struct {
	// Dir is the root the patterns resolve against: the module root in
	// module mode, or a GOPATH-style src root (analysistest fixtures).
	Dir string
	// ModulePath, when non-empty, maps import paths with this prefix
	// into Dir (module mode). When empty, every non-stdlib import path
	// resolves to Dir/<path> (src-root mode).
	ModulePath string
	// Tests includes _test.go files of target packages.
	Tests bool
}

// std holds the standard library as type-checked by every Load in the
// process: it checks the same for any module, and a test binary that
// loads the module and then a scratch module pays for it once. Each
// Load holds std's lock throughout, so within one load every stdlib
// package comes from the same check, and every load shares one FileSet.
var std struct {
	sync.Mutex
	fset *token.FileSet
	pkgs map[string]*types.Package
}

// Load resolves patterns ("./...", "./internal/core", or bare import
// paths in src-root mode) to directories, then parses and type-checks
// each resulting package plus, with cfg.Tests, its external _test
// package.
func Load(cfg *Config, patterns ...string) ([]*Package, error) {
	ctxt := build.Default
	// Cgo files cannot be type-checked from source; every package on
	// this module's import graph has a pure-Go fallback.
	ctxt.CgoEnabled = false
	std.Lock()
	defer std.Unlock()
	if std.fset == nil {
		std.fset, std.pkgs = token.NewFileSet(), make(map[string]*types.Package)
	}
	ld := &loaderState{
		cfg:      cfg,
		ctxt:     &ctxt,
		fset:     std.fset,
		checked:  make(map[string]*types.Package),
		checking: make(map[string]bool),
		targets:  make(map[string]bool),
	}

	dirs, err := ld.expand(patterns)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		ld.targets[dir] = true
	}

	// A target reached first as another target's import is checked (and
	// recorded) at that moment, so the loop below may hit the cache;
	// ld.loaded accumulates every target exactly once either way.
	for _, dir := range dirs {
		path, err := ld.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		if _, err := ld.check(path); err != nil {
			return nil, err
		}
	}
	// External test packages are checked after every base package:
	// package foo_test may import anything that imports foo, so
	// checking it inside foo's own check() would manufacture cycles.
	for _, x := range ld.xtests {
		if err := ld.checkXTest(x.base, x.dir, x.files); err != nil {
			return nil, err
		}
	}
	sort.Slice(ld.loaded, func(i, j int) bool { return ld.loaded[i].PkgPath < ld.loaded[j].PkgPath })
	return ld.loaded, nil
}

// loaderState carries one Load's caches.
type loaderState struct {
	cfg      *Config
	ctxt     *build.Context
	fset     *token.FileSet
	checked  map[string]*types.Package // import path -> checked package
	checking map[string]bool           // cycle guard
	targets  map[string]bool           // target directories
	loaded   []*Package
	xtests   []xtestWork
}

// xtestWork defers an external test package until all base packages
// are checked.
type xtestWork struct {
	base, dir string
	files     []string
}

// expand resolves the patterns to package directories.
func (ld *loaderState) expand(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		dir = filepath.Clean(dir)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := ld.walkTree(ld.cfg.Dir, add); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			root := filepath.Join(ld.cfg.Dir, strings.TrimSuffix(pat, "/..."))
			if err := ld.walkTree(root, add); err != nil {
				return nil, err
			}
		default:
			add(filepath.Join(ld.cfg.Dir, pat))
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// walkTree collects every directory under root that holds .go files,
// skipping testdata, vendor and hidden directories the way the go
// tool's "./..." does.
func (ld *loaderState) walkTree(root string, add func(string)) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				add(path)
				break
			}
		}
		return nil
	})
}

// importPathFor maps a target directory back to its import path.
func (ld *loaderState) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(ld.cfg.Dir, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		if ld.cfg.ModulePath != "" {
			return ld.cfg.ModulePath, nil
		}
		return "", fmt.Errorf("loader: src-root mode cannot load the root directory itself")
	}
	if ld.cfg.ModulePath != "" {
		return ld.cfg.ModulePath + "/" + rel, nil
	}
	return rel, nil
}

// dirFor resolves an import path to a directory, or "" when the path
// is not resolvable (the caller reports the import site).
func (ld *loaderState) dirFor(path string) string {
	if ld.cfg.ModulePath != "" {
		if path == ld.cfg.ModulePath {
			return ld.cfg.Dir
		}
		if rest, ok := strings.CutPrefix(path, ld.cfg.ModulePath+"/"); ok {
			return filepath.Join(ld.cfg.Dir, filepath.FromSlash(rest))
		}
	} else {
		// src-root mode: local fixture packages live under Dir.
		if dir := filepath.Join(ld.cfg.Dir, filepath.FromSlash(path)); isDir(dir) {
			return dir
		}
	}
	goroot := ld.ctxt.GOROOT
	if dir := filepath.Join(goroot, "src", filepath.FromSlash(path)); isDir(dir) {
		return dir
	}
	// The standard library vendors its golang.org/x dependencies.
	if dir := filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path)); isDir(dir) {
		return dir
	}
	return ""
}

func isDir(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

// Import implements types.Importer over the loader's resolution rules.
func (ld *loaderState) Import(path string) (*types.Package, error) {
	return ld.check(path)
}

// check type-checks path (once), recursing through its imports.
func (ld *loaderState) check(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := ld.checked[path]; ok {
		return pkg, nil
	}
	if ld.checking[path] {
		return nil, fmt.Errorf("loader: import cycle through %q", path)
	}
	ld.checking[path] = true
	defer delete(ld.checking, path)

	dir := ld.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("loader: cannot resolve import %q", path)
	}
	inGOROOT := strings.HasPrefix(dir, filepath.Join(ld.ctxt.GOROOT, "src")+string(filepath.Separator))
	if pkg := std.pkgs[path]; pkg != nil && inGOROOT {
		ld.checked[path] = pkg
		return pkg, nil
	}
	bp, err := ld.ctxt.ImportDir(dir, 0)
	isTarget := ld.targets[filepath.Clean(dir)]
	if err != nil {
		// A directory holding only _test.go files is a valid target
		// (go/build reports it as NoGoError with the test lists
		// populated); anywhere else it cannot satisfy an import.
		var noGo *build.NoGoError
		if !(errors.As(err, &noGo) && isTarget && ld.cfg.Tests) {
			return nil, fmt.Errorf("loader: %s: %w", path, err)
		}
	}
	files := append([]string(nil), bp.GoFiles...)
	if isTarget && ld.cfg.Tests {
		files = append(files, bp.TestGoFiles...)
	}

	mode := parser.SkipObjectResolution
	if isTarget {
		mode |= parser.ParseComments
	}
	syntax, err := ld.parseAll(dir, files, mode)
	if err != nil {
		return nil, err
	}

	var pkg *types.Package
	info := newInfo()
	if len(syntax) == 0 {
		// Pure external-test directory: the base package is empty.
		pkg = types.NewPackage(path, bp.Name)
	} else {
		conf := types.Config{
			Importer: ld,
			Sizes:    types.SizesFor("gc", ld.ctxt.GOARCH),
		}
		pkg, err = conf.Check(path, ld.fset, syntax, info)
		if err != nil {
			return nil, fmt.Errorf("loader: type-checking %s: %w", path, err)
		}
	}
	ld.checked[path] = pkg
	if inGOROOT {
		std.pkgs[path] = pkg
	}

	if isTarget {
		ld.loaded = append(ld.loaded, &Package{
			PkgPath: path, Dir: dir, Fset: ld.fset,
			Files: syntax, Types: pkg, Info: info,
		})
		if ld.cfg.Tests && len(bp.XTestGoFiles) > 0 {
			ld.xtests = append(ld.xtests, xtestWork{base: path, dir: dir, files: bp.XTestGoFiles})
		}
	}
	return pkg, nil
}

// checkXTest type-checks a target's external test package
// (package foo_test in foo's directory).
func (ld *loaderState) checkXTest(base, dir string, files []string) error {
	syntax, err := ld.parseAll(dir, files, parser.SkipObjectResolution|parser.ParseComments)
	if err != nil {
		return err
	}
	info := newInfo()
	conf := types.Config{
		Importer: ld,
		Sizes:    types.SizesFor("gc", ld.ctxt.GOARCH),
	}
	path := base + "_test"
	pkg, err := conf.Check(path, ld.fset, syntax, info)
	if err != nil {
		return fmt.Errorf("loader: type-checking %s: %w", path, err)
	}
	ld.loaded = append(ld.loaded, &Package{
		PkgPath: path, Dir: dir, Fset: ld.fset,
		Files: syntax, Types: pkg, Info: info,
	})
	return nil
}

// parseAll parses the named files in dir.
func (ld *loaderState) parseAll(dir string, files []string, mode parser.Mode) ([]*ast.File, error) {
	syntax := make([]*ast.File, 0, len(files))
	for _, name := range files {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, f)
	}
	return syntax, nil
}

// newInfo allocates a fully-populated types.Info.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
