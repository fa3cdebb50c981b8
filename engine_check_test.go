package vpm

// This file is the one-pipeline guard: the epoch pipeline's building
// blocks — simulating a segment, opening a windowed store, a rolling
// verifier or an epoch driver, ingesting a bundle — may be called only
// from internal/engine (and from the packages that define them). Any
// other non-test caller outside bench/ is a hand-wired copy of the
// collect → publish → fetch → ingest → verify → evict loop in the
// making, which is what the engine replaced; such a copy drifts (the
// stream-end rule existed in one of five before).
//
// Every guard here reads the module's one type-checked view
// (loadModule): names resolve through types.Info, so a method, a
// renamed import or a method value is seen for what it is.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vpm/internal/analysis/loader"
)

// fileName returns the slash-separated name of one of pkg's files.
func fileName(pkg *loader.Package, f *ast.File) string {
	return filepath.ToSlash(pkg.Fset.Position(f.Package).Filename)
}

// productionFiles returns pkg's non-test files outside bench/.
func productionFiles(pkg *loader.Package) []*ast.File {
	var files []*ast.File
	for _, f := range pkg.Files {
		if name := fileName(pkg, f); !isTestFile(name) && !strings.HasPrefix(name, "bench/") {
			files = append(files, f)
		}
	}
	return files
}

// lookupPkg returns the loaded package at path.
func lookupPkg(t *testing.T, pkgs []*loader.Package, path string) *loader.Package {
	t.Helper()
	for _, pkg := range pkgs {
		if pkg.PkgPath == path {
			return pkg
		}
	}
	t.Fatalf("package %s is not in the module", path)
	return nil
}

// lookup returns the package-level object name of the package at path.
func lookup(t *testing.T, pkgs []*loader.Package, path, name string) types.Object {
	t.Helper()
	obj := lookupPkg(t, pkgs, path).Types.Scope().Lookup(name)
	if obj == nil {
		t.Fatalf("%s has no %s", path, name)
	}
	return obj
}

// usersIn returns the name of each top-level declaration of f that
// uses an object match accepts: the function's name, or "var" for a
// package-level declaration.
func usersIn(info *types.Info, f *ast.File, match func(types.Object) bool) []string {
	var names []string
	for _, d := range f.Decls {
		found := false
		ast.Inspect(d, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && match(info.Uses[id]) {
				found = true
			}
			return !found
		})
		if !found {
			continue
		}
		if fn, ok := d.(*ast.FuncDecl); ok {
			names = append(names, fn.Name.Name)
		} else {
			names = append(names, "var")
		}
	}
	return names
}

func TestOnePipeline(t *testing.T) {
	t.Parallel()
	guarded := map[string]bool{
		"RunSegment": true, "NewWindowedStore": true, "NewRollingVerifier": true,
		"NewEpochDriver": true, "NewEpochDriverFor": true, "IngestBundle": true,
	}
	allowed := []string{"internal/engine/", "internal/core/", "internal/netsim/"}
	for _, pkg := range loadModule(t) {
		for _, f := range productionFiles(pkg) {
			path := fileName(pkg, f)
			if slices.ContainsFunc(allowed, func(dir string) bool { return strings.HasPrefix(path, dir) }) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				// A function, a method or a func-typed value, called or not.
				obj := pkg.Info.Uses[id]
				if obj == nil || !guarded[obj.Name()] {
					return true
				}
				if _, ok := obj.Type().Underlying().(*types.Signature); ok {
					name := obj.Name()
					if fn, ok := obj.(*types.Func); ok {
						name = fn.FullName()
					}
					t.Errorf("%s: calls %s outside internal/engine — run the pipeline through the engine instead",
						pkg.Fset.Position(id.Pos()), name)
				}
				return true
			})
		}
	}
}

// TestLoadBearingSet is the guard on what PRs 22, 24 and 25 cut down
// to: one collector type, no streaming-sketch backend, one simulator,
// one serve selection and one cursor for every dissemination carrier,
// four binaries, and a facade that exports only what something reads —
// and on one verifier front end, a one-shot run being epoch 0 of the
// epoch pipeline, and one signed unit per (domain, epoch): one
// signature check for every carrier and one fleet feed per domain.
// Each clause fails on a candidate that came back without a caller.
func TestLoadBearingSet(t *testing.T) {
	t.Parallel()
	pkgs := loadModule(t)
	var tamperCallers, seqCursors, sigCheckers []string
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
	// BundleTamper.Serve: the interface's method, or the method of a
	// type that satisfies it.
	tamper := lookup(t, pkgs, "vpm/internal/dissem", "BundleTamper").Type().Underlying().(*types.Interface)
	servesTamper := func(obj types.Object) bool {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Name() != "Serve" {
			return false
		}
		recv := fn.Type().(*types.Signature).Recv()
		return recv != nil && types.Implements(recv.Type(), tamper)
	}
	verifiesSig := func(obj types.Object) bool {
		fn, ok := obj.(*types.Func)
		return ok && fn.Pkg() != nil && fn.Pkg().Path() == "crypto/ed25519" && fn.Name() == "Verify"
	}
	for _, pkg := range pkgs {
		for _, f := range productionFiles(pkg) {
			path := fileName(pkg, f)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
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
			for _, fn := range usersIn(pkg.Info, f, verifiesSig) {
				sigCheckers = append(sigCheckers, path+":"+fn)
			}
			if strings.HasPrefix(path, "internal/dissem/") {
				tamperCallers = append(tamperCallers, usersIn(pkg.Info, f, servesTamper)...)
			} else {
				for range seqCursor.FindAll(src, -1) {
					seqCursors = append(seqCursors, path)
				}
			}
		}
	}

	// declaring returns the types of non-test code in the package at
	// path that declare method.
	declaring := func(path, method string) []string {
		pkg := lookupPkg(t, pkgs, path)
		var names []string
		for _, name := range pkg.Types.Scope().Names() {
			tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			for i := 0; ok && i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Name() == method && !isTestFile(pkg.Fset.Position(m.Pos()).Filename) {
					names = append(names, name)
				}
			}
		}
		return names
	}
	// One collector: in non-test internal/core only Collector and the
	// epoch clock that wraps it (EpochCollector forwards, it holds no
	// path state) take observation batches.
	if got, want := declaring("vpm/internal/core", "ObserveBatch"), []string{"Collector", "EpochCollector"}; !slices.Equal(got, want) {
		t.Errorf("types declaring ObserveBatch in non-test internal/core: %v, want %v — a second collector belongs in a _test.go oracle", got, want)
	}
	// One network model: one type in non-test internal/netsim owns a
	// forwarding sweep, and a deployment holds a Topology, never a Path
	// beside it.
	if got, want := declaring("vpm/internal/netsim", "RunSegment"), []string{"TopoRunner"}; !slices.Equal(got, want) {
		t.Errorf("types declaring RunSegment in non-test internal/netsim: %v, want %v — a second simulator belongs in a _test.go oracle", got, want)
	}
	dep := lookup(t, pkgs, "vpm/internal/core", "Deployment").Type().Underlying().(*types.Struct)
	for i := range dep.NumFields() {
		if f := dep.Field(i); f.Name() == "Path" {
			t.Errorf("%s: core.Deployment has a Path field again — a chain is a Topology with one default route (netsim.Path.Topology)", pkgs[0].Fset.Position(f.Pos()))
		}
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

	// Four binaries: the paper's results are TestPaperResults' golden
	// files, and the lint gate is TestTreeIsClean, not a binary.
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var cmds []string
	for _, e := range entries {
		cmds = append(cmds, e.Name())
	}
	if want := []string{"vpm-fleet", "vpm-node", "vpm-sim", "vpm-trace"}; !slices.Equal(cmds, want) {
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
	facade := lookupPkg(t, pkgs, "vpm")
	var unread []string
	for id, obj := range facade.Info.Defs {
		pos := facade.Fset.Position(id.Pos())
		if obj == nil || !obj.Exported() || pos.Filename != "vpm.go" || referenced[obj.Name()] {
			continue
		}
		if fn, ok := obj.(*types.Func); obj.Parent() == facade.Types.Scope() || ok && fn.Type().(*types.Signature).Recv() != nil {
			unread = append(unread, fmt.Sprintf("%s: %s is referenced by no example, doc or facade test — delete it or use it", pos, obj.Name()))
		}
	}
	slices.Sort(unread)
	for _, msg := range unread {
		t.Error(msg)
	}
}

// TestNoUnusedInternalExports keeps internal/ down to what runs. Every
// exported top-level identifier, method and struct field of non-test
// internal/ code must be referenced by a non-test file (bench/ counts)
// or by the tests of another package, and every internal/ package must
// be imported by one of those. What only its own package's tests use
// belongs in a _test.go file of that package, where its external tests
// still reach it; what nothing uses goes.
func TestNoUnusedInternalExports(t *testing.T) {
	t.Parallel()
	for _, msg := range unusedExports(loadModule(t), "vpm") {
		t.Error(msg)
	}
}

// TestUnusedExportsFixture holds unusedExports to a small module under
// testdata/exports: a method and a field that only their own package's
// tests use are reported, and an Unwrap, a String and a ServeHTTP that
// nothing calls by name, only through errors.Is, fmt.Stringer and
// http.Handler, are not.
func TestUnusedExportsFixture(t *testing.T) {
	t.Parallel()
	pkgs, err := loader.Load(&loader.Config{Dir: filepath.Join("testdata", "exports"), ModulePath: "fixture", Tests: true}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	got := unusedExports(pkgs, "fixture")
	want := []string{
		"internal/lib/lib.go:13:2: lib.Table.Hits is referenced",
		"internal/lib/lib.go:23:17: lib.Table.Reset is referenced",
		"internal/unused/unused.go:2:9: package internal/unused is imported by no",
		"internal/unused/unused.go:5:6: unused.Helper is referenced",
	}
	if len(got) != len(want) {
		t.Fatalf("unusedExports = %q, want one line each for %q", got, want)
	}
	for i, w := range want {
		if !strings.HasPrefix(got[i], filepath.Join("testdata", "exports", w)) {
			t.Errorf("line %d = %q, want %q…", i, got[i], w)
		}
	}
}

// unusedExports returns what TestNoUnusedInternalExports fails on in
// the loaded module at modulePath, one sorted line each. A reference
// from inside an identifier's own declaration, or from a method of the
// type it names, does not count; nor does a test file of the declaring
// package, in-package or external. An exported method also counts as
// used when its type satisfies an interface holding it, since a call
// through the interface names only the interface's method: fmt.Stringer
// reaches a String, http.Handler a ServeHTTP, errors.Is an Unwrap.
func unusedExports(pkgs []*loader.Package, modulePath string) []string {
	type decl struct {
		pos     token.Pos
		name    string     // package.Name, package.Type.Member
		pkgPath string     // the declaring package
		self    []ast.Node // the declaration, and a type's methods
	}
	declared := map[types.Object]*decl{}
	packages := map[string]token.Pos{} // internal/ package -> a package clause
	imported := map[string]bool{}
	var methods []*types.Func
	var fset *token.FileSet
	for _, pkg := range pkgs {
		fset = pkg.Fset
		own := strings.TrimSuffix(pkg.PkgPath, "_test")
		internal := pkg.PkgPath == own && strings.HasPrefix(own, modulePath+"/internal/")
		add := func(obj types.Object, name string, self ast.Node) *decl {
			if !obj.Exported() {
				return nil
			}
			d := &decl{pos: obj.Pos(), name: pkg.Types.Name() + "." + name, pkgPath: own}
			if self != nil {
				d.self = []ast.Node{self}
			}
			declared[obj] = d
			return d
		}
		// Methods, by receiver type name: self-references of the type.
		byRecv := map[*types.TypeName][]ast.Node{}
		for _, f := range pkg.Files {
			test := isTestFile(pkg.Fset.Position(f.Package).Filename)
			for _, imp := range f.Imports {
				if p, err := strconv.Unquote(imp.Path.Value); err == nil && p != own {
					imported[p] = true
				}
			}
			if test || !internal {
				continue
			}
			if slices.ContainsFunc(f.Decls, declaresCode) {
				packages[own] = f.Name.Pos()
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := pkg.Info.Defs[d.Name].(*types.Func)
					recv := fn.Type().(*types.Signature).Recv()
					if recv == nil {
						add(fn, fn.Name(), d)
						continue
					}
					tn := receiverNamed(recv.Type()).Obj()
					byRecv[tn] = append(byRecv[tn], d)
					if add(fn, tn.Name()+"."+fn.Name(), d) != nil {
						methods = append(methods, fn)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							tn := pkg.Info.Defs[spec.Name].(*types.TypeName)
							add(tn, tn.Name(), spec)
							if st, ok := tn.Type().Underlying().(*types.Struct); ok && !tn.IsAlias() {
								for i := range st.NumFields() {
									add(st.Field(i), tn.Name()+"."+st.Field(i).Name(), nil)
								}
							}
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								add(pkg.Info.Defs[id], id.Name, spec)
							}
						}
					}
				}
			}
		}
		for tn, fns := range byRecv {
			if d := declared[tn]; d != nil {
				d.self = append(d.self, fns...)
			}
		}
	}

	used := map[types.Object]bool{}
	use := func(user *loader.Package, pos token.Pos, obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		d := declared[obj]
		if d == nil || used[obj] {
			return
		}
		if isTestFile(user.Fset.Position(pos).Filename) {
			used[obj] = strings.TrimSuffix(user.PkgPath, "_test") != d.pkgPath
			return
		}
		used[obj] = !slices.ContainsFunc(d.self, func(n ast.Node) bool { return n.Pos() <= pos && pos < n.End() })
	}
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			use(pkg, id.Pos(), obj)
		}
		// A promoted field or method is reached through every embedded
		// field on its path.
		for sel, s := range pkg.Info.Selections {
			typ := s.Recv()
			for _, i := range s.Index()[:len(s.Index())-1] {
				if p, ok := typ.Underlying().(*types.Pointer); ok {
					typ = p.Elem()
				}
				st, ok := typ.Underlying().(*types.Struct)
				if !ok {
					break
				}
				use(pkg, sel.Sel.Pos(), st.Field(i))
				typ = st.Field(i).Type()
			}
		}
	}
	ifaces := interfacesByMethod(pkgs)
	for _, m := range methods {
		named := receiverNamed(m.Type().(*types.Signature).Recv().Type())
		if used[m] || named.TypeParams().Len() > 0 {
			continue
		}
		used[m] = slices.ContainsFunc(ifaces[m.Name()], func(iface *types.Interface) bool {
			return types.Implements(types.NewPointer(named), iface)
		})
	}

	var unused []string
	for path, pos := range packages {
		if !imported[path] {
			unused = append(unused, fmt.Sprintf("%s: package %s is imported by no non-test file and by no other package's tests — delete it", fset.Position(pos), strings.TrimPrefix(path, modulePath+"/")))
		}
	}
	for obj, d := range declared {
		if !used[obj] {
			unused = append(unused, fmt.Sprintf("%s: %s is referenced by no non-test file and by no other package's tests — delete it, or move it into a _test.go file if its own tests use it", fset.Position(d.pos), d.name))
		}
	}
	slices.Sort(unused)
	return unused
}

// receiverNamed returns the named type of a method receiver, T or *T.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.Unalias(t).(*types.Named)
}

// interfacesByMethod indexes, by method name, every interface the
// loaded packages can reach: the named ones of every package they
// import (stdlib included), the interface literals of their own code,
// and the anonymous ones errors.Is, errors.As and errors.Unwrap probe
// an error for, whose bodies the view does not hold.
func interfacesByMethod(pkgs []*loader.Package) map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] || !iface.IsMethodSet() {
			return
		}
		seen[iface] = true
		for i := range iface.NumMethods() {
			name := iface.Method(i).Name()
			byMethod[name] = append(byMethod[name], iface)
		}
	}
	for _, expr := range []string{"error", "interface{ Unwrap() error }", "interface{ Unwrap() []error }", "interface{ Is(error) bool }", "interface{ As(any) bool }"} {
		tv, err := types.Eval(token.NewFileSet(), nil, token.NoPos, expr)
		if err != nil {
			panic(err)
		}
		add(tv.Type)
	}
	visited := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
		for expr, tv := range pkg.Info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				add(tv.Type)
			}
		}
	}
	return byMethod
}

// declaresCode reports whether d declares something other than imports:
// a package of documentation alone, like internal/e2e, holds no code
// for anything to import.
func declaresCode(d ast.Decl) bool {
	g, ok := d.(*ast.GenDecl)
	return !ok || g.Tok != token.IMPORT
}
