// Package determinism guards the repository's replay-determinism
// invariant: every verdict, receipt encoding and layout computation
// must be a pure function of the evidence, byte-identical at any
// shard/worker count and across crash-recovery re-execution. The two
// bug classes that have violated it in past PRs are (a) Go map
// iteration order leaking into an output sequence (PR 5's
// TreeTopology link numbering) and (b) wall-clock or global-RNG reads
// inside code that re-runs during recovery.
//
// The pass applies only to the deterministic packages (core, receipt,
// dissem, seqdetect, segstore, and engine, which every fingerprint
// flows through, and adversary, whose lies the attack matrix replays)
// and skips test files. It flags:
//
//   - ranging over a map while appending to a slice declared outside
//     the loop, unless the slice later reaches a sort call in the same
//     function (the collect-then-sort idiom);
//   - ranging over a map while writing to a writer, feeding an
//     encoder, formatting output, or sending on a channel — order has
//     already escaped, no later sort can fix it;
//   - time.Now/Since/Until — replayed runs must take timestamps from
//     the observation stream or epoch clock;
//   - the global math/rand functions — randomness must come from a
//     seeded *rand.Rand threaded through the computation.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"vpm/internal/analysis"
)

// Analyzer is the determinism pass.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "verdict/encode/layout packages must not leak map iteration order into output " +
		"and must not read wall clocks or global RNGs",
	Run: run,
}

// scoped names the replay-deterministic packages. Fixture packages in
// testdata reuse these names, which is how the analysistest suite
// exercises the pass.
var scoped = map[string]bool{
	"core":      true,
	"receipt":   true,
	"dissem":    true,
	"seqdetect": true,
	"segstore":  true,
	"engine":    true,
	"adversary": true,
}

// orderSinks are method names that emit or accumulate data in call
// order: reaching one from inside a map range means iteration order
// escaped into an output stream.
var orderSinks = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "EncodeBlock": true, "AppendEncode": true, "AppendBinary": true,
	"MarshalBinary": true, "Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !scoped[pass.Pkg.Name()] {
		return nil, nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFunc(pass, n.Body)
				}
				return true
			case *ast.CallExpr:
				checkClock(pass, n)
				checkGlobalRand(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkFunc examines one function body for map-range order leaks.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	// Sort events anywhere in the function, in position order: a call
	// whose name contains "sort" and the root objects it touches.
	type sortEvent struct {
		pos  token.Pos
		objs map[types.Object]bool
	}
	var sorts []sortEvent
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !strings.Contains(strings.ToLower(qualifiedCalleeName(call)), "sort") {
			return true
		}
		ev := sortEvent{pos: call.Pos(), objs: make(map[types.Object]bool)}
		for _, arg := range call.Args {
			if id := analysis.RootIdent(arg); id != nil {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					ev.objs[obj] = true
				}
			}
		}
		sorts = append(sorts, ev)
		return true
	})

	sortedAfter := func(obj types.Object, after token.Pos) bool {
		for _, ev := range sorts {
			if ev.pos > after && ev.objs[obj] {
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, rng, sortedAfter)
		return true
	})
}

// checkMapRangeBody flags order leaks inside one map-range loop.
func checkMapRangeBody(pass *analysis.Pass, rng *ast.RangeStmt, sortedAfter func(types.Object, token.Pos) bool) {
	declaredInside := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End()
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// A nested map range is checked on its own visit; avoid
			// double-reporting its body.
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					return false
				}
			}
		case *ast.SendStmt:
			pass.Report(analysis.Diagnostic{
				Pos:     n.Pos(),
				Message: "channel send inside a map range: receivers observe map iteration order",
				Fix:     "collect into a slice, sort, then send",
			})
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || i >= len(n.Lhs) {
					continue
				}
				// A keyed map write (out[k] = append(...)) is
				// order-independent: the result is the same map
				// whatever order the keys arrive in.
				if ix, ok := ast.Unparen(n.Lhs[i]).(*ast.IndexExpr); ok {
					if bt := pass.TypesInfo.TypeOf(ix.X); bt != nil {
						if _, isMap := bt.Underlying().(*types.Map); isMap {
							continue
						}
					}
				}
				id := analysis.RootIdent(n.Lhs[i])
				if id == nil {
					continue
				}
				obj := pass.TypesInfo.ObjectOf(id)
				if obj == nil || declaredInside(obj) {
					continue
				}
				if !sortedAfter(obj, rng.End()) {
					pass.Report(analysis.Diagnostic{
						Pos:     n.Pos(),
						Message: "appending to " + id.Name + " inside a map range leaks map iteration order",
						Fix:     "sort " + id.Name + " after the loop (or iterate sorted keys)",
					})
				}
			}
		case *ast.CallExpr:
			name := calleeName(n)
			if orderSinks[name] {
				pass.Report(analysis.Diagnostic{
					Pos:     n.Pos(),
					Message: name + " called inside a map range: output records map iteration order",
					Fix:     "iterate sorted keys, or collect and sort before emitting",
				})
			}
		}
		return true
	})
}

// checkClock flags wall-clock reads.
func checkClock(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return
	}
	switch fn.Name() {
	case "Now", "Since", "Until":
		pass.Report(analysis.Diagnostic{
			Pos:     call.Pos(),
			Message: "time." + fn.Name() + " in a replay-deterministic package: recovery re-execution would diverge",
			Fix:     "take timestamps from the observation stream or the epoch clock",
		})
	}
}

// checkGlobalRand flags the process-global math/rand functions.
func checkGlobalRand(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
		return
	}
	if fn.Signature().Recv() != nil {
		return // a method on a caller-owned *rand.Rand is seeded state
	}
	if strings.HasPrefix(fn.Name(), "New") {
		return // constructing a seeded source is the fix, not the bug
	}
	pass.Report(analysis.Diagnostic{
		Pos:     call.Pos(),
		Message: "global math/rand." + fn.Name() + " in a replay-deterministic package: unseeded state diverges across runs",
		Fix:     "thread a seeded *rand.Rand through the computation",
	})
}

// qualifiedCalleeName renders the callee including any qualifier
// ("sort.Strings", "slices.SortFunc", "sortReceipts"), so the
// contains-"sort" test sees both package-qualified and helper names.
func qualifiedCalleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return ""
}

// calleeName extracts the syntactic callee name (method or function).
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isBuiltinAppend matches the append builtin.
func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}
