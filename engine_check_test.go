package vpm

// This file is the one-pipeline guard: the epoch pipeline's building
// blocks — simulating a segment, opening a windowed store, a rolling
// verifier or an epoch driver, ingesting a bundle — may be called only
// from internal/engine (and from the packages that define them). Any
// other non-test caller outside bench/ is a hand-wired copy of the
// collect → publish → fetch → ingest → verify → evict loop in the
// making, which is what the engine replaced; such a copy drifts (the
// stream-end rule existed in one of five before).

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	pathpkg "path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// walkGo calls fn with the slash-separated path of every Go file of
// the module, tests included, outside testdata and dot directories.
func walkGo(t *testing.T, fn func(path string) error) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if path = filepath.ToSlash(path); strings.HasSuffix(path, ".go") {
			return fn(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// walkProductionGo calls fn with the slash-separated path of every
// non-test Go file of the module outside bench/ and testdata.
func walkProductionGo(t *testing.T, fn func(path string) error) {
	t.Helper()
	walkGo(t, func(path string) error {
		if strings.HasPrefix(path, "bench/") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		return fn(path)
	})
}

func TestOnePipeline(t *testing.T) {
	guarded := map[string]bool{
		"RunSegment": true, "NewWindowedStore": true, "NewRollingVerifier": true,
		"NewEpochDriver": true, "NewEpochDriverFor": true, "IngestBundle": true,
	}
	allowed := []string{"internal/engine/", "internal/core/", "internal/netsim/"}
	fset := token.NewFileSet()
	walkProductionGo(t, func(path string) error {
		for _, dir := range allowed {
			if strings.HasPrefix(path, dir) {
				return nil
			}
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var name string
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				name = fn.Name
			case *ast.SelectorExpr:
				name = fn.Sel.Name
			}
			if guarded[name] {
				t.Errorf("%s: calls %s outside internal/engine — run the pipeline through the engine instead",
					fset.Position(call.Pos()), name)
			}
			return true
		})
		return nil
	})
}

// TestLoadBearingSet is the guard on what PRs 22, 24 and 25 cut down
// to: one collector type, no streaming-sketch backend, one simulator,
// one serve selection and one cursor for every dissemination carrier,
// five binaries, and a facade that exports only what something reads —
// and on one verifier front end, a one-shot run being epoch 0 of the
// epoch pipeline, and one signed unit per (domain, epoch): one
// signature check for every carrier and one fleet feed per domain.
// Each clause fails on a candidate that came back without a caller.
func TestLoadBearingSet(t *testing.T) {
	// One collector: in non-test internal/core only Collector and the
	// epoch clock that wraps it (EpochCollector forwards, it holds no
	// path state) take observation batches.
	var batchTypes, simTypes, tamperCallers, seqCursors, sigCheckers []string
	// One signed unit per (domain, epoch): the fleet serves one feed per
	// domain, never one per HOP.
	perHOPRoute := regexp.MustCompile(`/hop/`)
	// One cursor: outside internal/dissem a feed's cursor moves past a
	// bundle only in the engine's drain, by the server position a
	// BundleError names — never by the seq a payload claims.
	seqCursor := regexp.MustCompile(`\.Seq\s*\+\s*1\b`)
	retired := regexp.MustCompile(`BackendSketch|DrainSketches|SetKeep|SetSink`)
	// What only the per-carrier copies served: the epoch-filtered
	// subscription, the registry-first ingest path, the compact receipt
	// codec and the store-key type.
	deleted := regexp.MustCompile(`\b(FetchEpochEach|CollectEpochEach|CollectEach|VerifyFromRegistry|IngestSigned|IngestBundles|AppendCompact|DecodeCompact|StoreKey)\b`)
	// What a one-shot run kept beside the epoch pipeline: the batch
	// bridge that applied adversaries and the second receipt store.
	batchFrontEnd := regexp.MustCompile(`\b(BatchSeal|CorruptSealed|StoreFromSealed|ReceiptStore|NewReceiptStore|NewVerifierOn)\b`)
	fset := token.NewFileSet()
	walkProductionGo(t, func(path string) error {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if m := retired.Find(src); m != nil {
			t.Errorf("%s: mentions %s — the streaming-sketch backend is gone; nothing selected it", path, m)
		}
		if m := deleted.Find(src); m != nil {
			t.Errorf("%s: mentions %s — deleted in PR 25; no non-test caller used it", path, m)
		}
		if m := batchFrontEnd.Find(src); m != nil {
			t.Errorf("%s: mentions %s — a one-shot run is epoch 0 of the epoch pipeline (Deployment.Seal, Deployment.VerifyOnce), and a Verifier reads one leaf", path, m)
		}
		if (strings.HasPrefix(path, "internal/fleet/") || strings.HasPrefix(path, "cmd/vpm-fleet/")) && perHOPRoute.Match(src) {
			t.Errorf("%s: mentions a /hop/ route — a collector serves one feed per domain (fleet.FeedPath), each epoch one payload under the domain's key", path)
		}
		if strings.Contains(string(src), "ed25519.Verify(") {
			f, err := parser.ParseFile(fset, path, src, 0)
			if err != nil {
				return err
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
					ast.Inspect(fn.Body, func(n ast.Node) bool {
						if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Verify" {
							if x, ok := sel.X.(*ast.Ident); ok && x.Name == "ed25519" {
								sigCheckers = append(sigCheckers, path+":"+fn.Name.Name)
							}
						}
						return true
					})
				}
			}
		}
		if !strings.HasPrefix(path, "internal/dissem/") {
			for range seqCursor.FindAll(src, -1) {
				seqCursors = append(seqCursors, path)
			}
		} else {
			f, err := parser.ParseFile(fset, path, src, 0)
			if err != nil {
				return err
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				calls := false
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 4 {
						if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Serve" {
							calls = true
						}
					}
					return !calls
				})
				if calls {
					tamperCallers = append(tamperCallers, fn.Name.Name)
				}
			}
			return nil
		}
		// The method whose receiver types are gathered from this file.
		inCore := strings.HasPrefix(path, "internal/core/")
		method, types := "ObserveBatch", &batchTypes
		if strings.HasPrefix(path, "internal/netsim/") {
			method, types = "RunSegment", &simTypes
		} else if !inCore {
			return nil
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil || d.Name.Name != method {
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				*types = append(*types, recv.(*ast.Ident).Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !inCore || ts.Name.Name != "Deployment" {
						continue
					}
					for _, field := range ts.Type.(*ast.StructType).Fields.List {
						for _, name := range field.Names {
							if name.Name == "Path" {
								t.Errorf("%s: core.Deployment has a Path field again — a chain is a Topology with one default route (netsim.Path.Topology)", fset.Position(name.Pos()))
							}
						}
					}
				}
			}
		}
		return nil
	})
	slices.Sort(batchTypes)
	if want := []string{"Collector", "EpochCollector"}; !slices.Equal(batchTypes, want) {
		t.Errorf("types declaring ObserveBatch in non-test internal/core: %v, want %v — a second collector belongs in a _test.go oracle", batchTypes, want)
	}
	// One network model: one type in non-test internal/netsim owns a
	// forwarding sweep, and a deployment holds a Topology, never a Path
	// beside it.
	if want := []string{"TopoRunner"}; !slices.Equal(simTypes, want) {
		t.Errorf("types declaring RunSegment in non-test internal/netsim: %v, want %v — a second simulator belongs in a _test.go oracle", simTypes, want)
	}

	// One serve selection: the bundles a viewer is served are chosen,
	// and the tamper applied, in one place for HTTP, the bus and the
	// equivocation cross-check alike.
	if len(tamperCallers) != 1 {
		t.Errorf("functions in non-test internal/dissem calling BundleTamper.Serve: %v, want exactly one — every carrier serves from Server's one selection", tamperCallers)
	}
	if want := []string{"internal/engine/verify.go"}; !slices.Equal(seqCursors, want) {
		t.Errorf("non-test files outside internal/dissem advancing a cursor by a bundle's Seq: %v, want only %v — both carriers return the server position as the cursor", seqCursors, want)
	}
	// One signature check: dissem's receive step (open) for every
	// carrier, and the signer's verification ahead for the first bus
	// consumer, whose result open only trusts under a byte-equal key.
	slices.Sort(sigCheckers)
	if want := []string{"internal/dissem/bundle.go:open", "internal/dissem/http.go:signQueued"}; !slices.Equal(sigCheckers, want) {
		t.Errorf("non-test functions calling ed25519.Verify: %v, want exactly %v — every payload is authenticated by the one receive step", sigCheckers, want)
	}

	// Five binaries: the paper's results are TestPaperResults' golden
	// files, not a binary's output.
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var cmds []string
	for _, e := range entries {
		cmds = append(cmds, e.Name())
	}
	if want := []string{"vpm-fleet", "vpm-lint", "vpm-node", "vpm-sim", "vpm-trace"}; !slices.Equal(cmds, want) {
		t.Errorf("cmd/ holds %v, want exactly %v", cmds, want)
	}

	// A facade somebody reads: every exported identifier of vpm.go is
	// referenced from examples/, README.md, docs/ or vpm_test.go.
	readers := []string{"README.md", "vpm_test.go"}
	for _, pattern := range []string{"docs/*.md", "examples/*/*.go"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		readers = append(readers, matches...)
	}
	referenced := map[string]bool{}
	selector := regexp.MustCompile(`\bvpm\.(\w+)`)
	for _, path := range readers {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range selector.FindAllSubmatch(src, -1) {
			referenced[string(m[1])] = true
		}
	}
	facade, err := parser.ParseFile(fset, "vpm.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exported []*ast.Ident
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			exported = append(exported, d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					exported = append(exported, spec.Name)
				case *ast.ValueSpec:
					exported = append(exported, spec.Names...)
				}
			}
		}
	}
	for _, id := range exported {
		if id.IsExported() && !referenced[id.Name] {
			t.Errorf("%s: %s is referenced by no example, doc or facade test — delete it or use it", fset.Position(id.Pos()), id.Name)
		}
	}
}

// TestNoUnusedInternalExports keeps internal/ down to what runs. Every
// exported top-level identifier of non-test internal/ code must be
// referenced by a non-test file (bench/ counts) or by the tests of
// another package, and every internal/ package must be imported by one
// of those. What only its own package's tests use belongs in a _test.go
// file of that package, where its external tests still reach it; what
// nothing uses goes. A reference from inside the identifier's own
// declaration, or from a method of the type it names, does not count.
func TestNoUnusedInternalExports(t *testing.T) {
	type ident struct{ dir, name string }
	declared := map[ident]token.Pos{}
	used := map[ident]bool{}
	packages := map[string]token.Pos{} // internal/ directory -> a package clause
	imported := map[string]bool{}
	fset := token.NewFileSet()
	walkGo(t, func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir, test := pathpkg.Dir(path), strings.HasSuffix(path, "_test.go")
		internal := !test && strings.HasPrefix(dir, "internal/")
		if internal && slices.ContainsFunc(f.Decls, declaresCode) {
			packages[dir] = f.Name.Pos()
		}
		// Import name -> directory, for the module's own packages.
		local := map[string]string{}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			d, ok := strings.CutPrefix(p, "vpm/")
			if !ok {
				continue
			}
			name := pathpkg.Base(d)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = d
			if d != dir {
				imported[d] = true
			}
		}
		for _, decl := range f.Decls {
			// Each top-level spec with the names it declares; references
			// to those inside it, or inside a method of the type it
			// declares, are self-references.
			var specs []ast.Node
			var names [][]*ast.Ident
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				specs = append(specs, decl)
				if decl.Recv == nil {
					names = append(names, []*ast.Ident{decl.Name})
				} else {
					names = append(names, nil)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						specs, names = append(specs, spec), append(names, []*ast.Ident{spec.Name})
					case *ast.ValueSpec:
						specs, names = append(specs, spec), append(names, spec.Names)
					}
				}
			}
			for i, spec := range specs {
				self := map[string]bool{}
				for _, id := range names[i] {
					self[id.Name] = true
					if internal && id.IsExported() {
						declared[ident{dir, id.Name}] = id.Pos()
					}
				}
				skip := map[*ast.Ident]bool{}
				if fn, ok := spec.(*ast.FuncDecl); ok {
					skip[fn.Name] = true
					if fn.Recv != nil {
						self[receiverType(fn.Recv.List[0].Type)] = true
					}
				}
				ast.Inspect(spec, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						skip[n.Sel] = true
						if x, ok := n.X.(*ast.Ident); ok {
							if d, ok := local[x.Name]; ok && (!test || d != dir) {
								used[ident{d, n.Sel.Name}] = true
							}
						}
					case *ast.Field:
						for _, id := range n.Names {
							skip[id] = true
						}
					case *ast.CompositeLit:
						// A key of a struct literal names a field.
						if _, ok := n.Type.(*ast.MapType); !ok {
							for _, elt := range n.Elts {
								if kv, ok := elt.(*ast.KeyValueExpr); ok {
									if id, ok := kv.Key.(*ast.Ident); ok {
										skip[id] = true
									}
								}
							}
						}
					case *ast.Ident:
						if !test && !skip[n] && !self[n.Name] {
							used[ident{dir, n.Name}] = true
						}
					}
					return true
				})
			}
		}
		return nil
	})
	var unused []string
	for dir, pos := range packages {
		if !imported[dir] {
			unused = append(unused, fmt.Sprintf("%s: package %s is imported by no non-test file and by no other package's tests — delete it", fset.Position(pos), dir))
		}
	}
	for id, pos := range declared {
		if !used[id] {
			unused = append(unused, fmt.Sprintf("%s: %s.%s is referenced by no non-test file and by no other package's tests — delete it, or move it into a _test.go file if its own tests use it", fset.Position(pos), pathpkg.Base(id.dir), id.name))
		}
	}
	slices.Sort(unused)
	for _, msg := range unused {
		t.Error(msg)
	}
}

// declaresCode reports whether d declares something other than imports:
// a package of documentation alone, like internal/e2e, holds no code
// for anything to import.
func declaresCode(d ast.Decl) bool {
	g, ok := d.(*ast.GenDecl)
	return !ok || g.Tok != token.IMPORT
}
