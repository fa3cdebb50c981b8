// Package hotpath is the static twin of the runtime zero-allocation
// gate (core.AllocsPerPktBudget, PR 6). The packet→receipt pipeline
// holds ~17 ns/pkt only because its steady state performs no heap
// allocation; one stray fmt.Sprintf or string concatenation in a
// function reached per packet blows the budget by orders of magnitude
// and is only caught when the CI bench job runs.
//
// Functions are marked hot with a //vpm:hotpath line in their doc
// comment (the convention used on Observe/ObserveBatch/Drain across
// the collection pipeline). Hotness propagates through the
// same-package static call graph: everything an annotated function
// calls — including through interface methods declared in the package
// — is hot too. Cross-package edges are not followed; each package on
// the hot path carries its own annotations, which keeps the contract
// visible at every layer.
//
// Inside a hot function the pass flags the allocation idioms:
// fmt calls, non-constant string concatenation, closure creation,
// make/new/slice-or-map composite literals and &T{}, explicit
// conversions to interface types (boxing), and append calls whose
// result does not feed back into the appended slice (the grow-only
// recycled-buffer pattern is the one allowed form). It also flags go
// statements, allocating or not: a hand-off per call costs more than
// the per-packet work it spreads (PR 18 measured ×0.68 for one
// goroutine per 256-observation sub-batch). Slow-path work
// inside a hot function — a once-per-path constructor, a once-per-
// drain sort — is suppressed with a justified //lint:ignore.
package hotpath

import (
	"go/ast"
	"go/types"
	"strings"

	"vpm/internal/analysis"
)

// Annotation marks a function as per-packet hot.
const Annotation = "vpm:hotpath"

// Analyzer is the hotpath pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "functions reachable from //vpm:hotpath annotations must not allocate: no fmt, " +
		"no string concat, no closures, no make/new/literals, append only in grow-only form, no go statements",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	decls, methodsByName := index(pass)
	hot := propagate(pass, decls, methodsByName)
	for fn, fd := range decls {
		if hot[fn] && !analysis.IsTestFile(pass.Fset, fd.Pos()) {
			checkBody(pass, fd)
		}
	}
	return nil, nil
}

// index maps the package's declared functions and groups its methods
// by name (for interface-call resolution).
func index(pass *analysis.Pass) (map[*types.Func]*ast.FuncDecl, map[string][]*types.Func) {
	decls := make(map[*types.Func]*ast.FuncDecl)
	methods := make(map[string][]*types.Func)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			if fd.Recv != nil {
				methods[fd.Name.Name] = append(methods[fd.Name.Name], fn)
			}
		}
	}
	return decls, methods
}

// annotated reports whether the declaration carries //vpm:hotpath.
func annotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), Annotation) {
			return true
		}
	}
	return false
}

// propagate seeds hotness at annotated functions and walks the
// same-package call graph to a fixed point.
func propagate(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, methodsByName map[string][]*types.Func) map[*types.Func]bool {
	hot := make(map[*types.Func]bool)
	var queue []*types.Func
	for fn, fd := range decls {
		if annotated(fd) {
			hot[fn] = true
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		fd := decls[fn]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, callee := range resolve(pass, call, decls, methodsByName) {
				if !hot[callee] {
					hot[callee] = true
					queue = append(queue, callee)
				}
			}
			return true
		})
	}
	return hot
}

// resolve returns the same-package functions a call may invoke. A call
// through an interface method declared in this package fans out to
// every same-named method the package declares — an over-approximation
// that errs on the side of the invariant.
func resolve(pass *analysis.Pass, call *ast.CallExpr, decls map[*types.Func]*ast.FuncDecl, methodsByName map[string][]*types.Func) []*types.Func {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() != pass.Pkg {
		return nil
	}
	if _, declared := decls[fn]; declared {
		return []*types.Func{fn}
	}
	// Interface method: fan out by name.
	return methodsByName[fn.Name()]
}

// checkBody flags allocation idioms in one hot function.
func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Appends in the allowed grow-only form: x = append(x, ...).
	allowedAppend := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if ok && isBuiltin(pass, call, "append") && len(call.Args) > 0 &&
				types.ExprString(as.Lhs[i]) == types.ExprString(call.Args[0]) {
				allowedAppend[call] = true
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Report(analysis.Diagnostic{
				Pos:     n.Pos(),
				Message: "closure created in a hot function: the captured environment allocates",
				Fix:     "hoist the closure out of the per-packet path or use a method value bound at setup time",
			})
			return true // its body is still hot; keep walking
		case *ast.GoStmt:
			pass.Report(analysis.Diagnostic{
				Pos:     n.Pos(),
				Message: "go statement in a hot function: a goroutine hand-off per call costs more than the work it spreads",
				Fix:     "run the work inline; spend a second core above the per-packet path, with a benchmark that defends it",
			})
		case *ast.BinaryExpr:
			checkStringConcat(pass, n)
		case *ast.AssignStmt:
			checkConcatAssign(pass, n)
		case *ast.CompositeLit:
			checkCompositeLit(pass, n)
		case *ast.UnaryExpr:
			checkAddressOfLit(pass, n)
		case *ast.CallExpr:
			checkCall(pass, n, allowedAppend)
		}
		return true
	})
}

// checkCall flags fmt, make/new, non-grow-only append, and interface
// conversions.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, allowedAppend map[*ast.CallExpr]bool) {
	if fn := analysis.Callee(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Report(analysis.Diagnostic{
			Pos:     call.Pos(),
			Message: "fmt." + fn.Name() + " in a hot function: formatting allocates on every call",
			Fix:     "render with an AppendText-style helper into a recycled buffer (see internal/intern)",
		})
		return
	}
	switch {
	case isBuiltin(pass, call, "make"):
		pass.Report(analysis.Diagnostic{
			Pos:     call.Pos(),
			Message: "make in a hot function allocates per call",
			Fix:     "allocate at setup time or recycle through a pool (see Drain/Recycle)",
		})
	case isBuiltin(pass, call, "new"):
		pass.Report(analysis.Diagnostic{
			Pos:     call.Pos(),
			Message: "new in a hot function allocates per call",
			Fix:     "allocate at setup time or recycle through a pool (see Drain/Recycle)",
		})
	case isBuiltin(pass, call, "append"):
		if !allowedAppend[call] {
			pass.Report(analysis.Diagnostic{
				Pos:     call.Pos(),
				Message: "append whose result does not feed back into its base: the grown slice escapes its recycled buffer",
				Fix:     "use the grow-only form x = append(x, ...) on a recycled slice",
			})
		}
	default:
		checkInterfaceConversion(pass, call)
	}
}

// checkInterfaceConversion flags explicit conversions T(x) where T is
// an interface and x is concrete — boxing allocates.
func checkInterfaceConversion(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	if _, isIface := tv.Type.Underlying().(*types.Interface); !isIface {
		return
	}
	argT := pass.TypesInfo.TypeOf(call.Args[0])
	if argT == nil {
		return
	}
	if _, already := argT.Underlying().(*types.Interface); already {
		return
	}
	pass.Report(analysis.Diagnostic{
		Pos:     call.Pos(),
		Message: "conversion to an interface in a hot function: boxing the value allocates",
		Fix:     "keep the concrete type on the per-packet path",
	})
}

// checkStringConcat flags non-constant string +.
func checkStringConcat(pass *analysis.Pass, b *ast.BinaryExpr) {
	if b.Op.String() != "+" {
		return
	}
	tv, ok := pass.TypesInfo.Types[b]
	if !ok || tv.Value != nil { // constant-folded concatenation is free
		return
	}
	if bt, ok := tv.Type.Underlying().(*types.Basic); !ok || bt.Info()&types.IsString == 0 {
		return
	}
	pass.Report(analysis.Diagnostic{
		Pos:     b.Pos(),
		Message: "string concatenation in a hot function allocates the joined string",
		Fix:     "append bytes into a recycled buffer, or intern the rendering (internal/intern)",
	})
}

// checkConcatAssign flags s += t on strings.
func checkConcatAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if as.Tok.String() != "+=" || len(as.Lhs) != 1 {
		return
	}
	t := pass.TypesInfo.TypeOf(as.Lhs[0])
	if t == nil {
		return
	}
	if bt, ok := t.Underlying().(*types.Basic); !ok || bt.Info()&types.IsString == 0 {
		return
	}
	pass.Report(analysis.Diagnostic{
		Pos:     as.Pos(),
		Message: "string += in a hot function allocates the joined string",
		Fix:     "append bytes into a recycled buffer, or intern the rendering (internal/intern)",
	})
}

// checkCompositeLit flags slice/map literals (always heap-backed when
// non-empty).
func checkCompositeLit(pass *analysis.Pass, cl *ast.CompositeLit) {
	t := pass.TypesInfo.TypeOf(cl)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		pass.Report(analysis.Diagnostic{
			Pos:     cl.Pos(),
			Message: "slice/map literal in a hot function allocates per call",
			Fix:     "allocate at setup time or recycle through a pool",
		})
	}
}

// checkAddressOfLit flags &T{...} — an escaping heap allocation.
func checkAddressOfLit(pass *analysis.Pass, u *ast.UnaryExpr) {
	if u.Op.String() != "&" {
		return
	}
	if _, ok := ast.Unparen(u.X).(*ast.CompositeLit); ok {
		pass.Report(analysis.Diagnostic{
			Pos:     u.Pos(),
			Message: "&composite-literal in a hot function heap-allocates per call",
			Fix:     "allocate at setup time or recycle through a pool",
		})
	}
}

// isBuiltin matches a builtin call by name.
func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isB
}
