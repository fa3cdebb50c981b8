package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// IsTestFile reports whether pos lies in a _test.go file. The
// determinism/hotpath/fsyncdiscipline passes guard production
// invariants and skip test code; errwrap runs everywhere (the sentinel
// comparisons that motivated it lived in tests).
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// Callee resolves the *types.Func a call invokes, or nil for builtins,
// conversions and indirect calls through function values.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call (pkg.Fn): no Selection entry.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// IsPackageLevel reports whether obj is declared at some package's
// top-level scope.
func IsPackageLevel(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// ErrorType is the universe error interface.
var ErrorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// ImplementsError reports whether t satisfies the error interface.
func ImplementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, ErrorType) || types.Implements(types.NewPointer(t), ErrorType)
}

// RootIdent digs the base identifier out of an lvalue-ish expression
// (x, x.f, x[i], *x ...), or nil.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		default:
			return nil
		}
	}
}
