// Package analysis is the repository's static-analysis framework: a
// self-contained, standard-library-only mirror of the
// golang.org/x/tools/go/analysis API surface that the repository's
// passes are written against. The module deliberately has no external
// dependencies (and the build environment is offline), so rather than
// vendor x/tools this package reimplements the thin slice the
// analyzers need — Analyzer, Pass, Diagnostic, a driver with
// //lint:ignore suppression, and an analysistest-style harness — on
// top of go/ast and go/types, fed by internal/analysis/loader.
//
// Each analyzer encodes an invariant the repository's verifiability
// guarantees rest on, front-running a runtime gate that previously
// caught its violations only after they shipped:
//
//   - determinism: verdict/encode packages must not let map iteration
//     order or wall-clock reads leak into output (the runtime twin is
//     the byte-identical-fingerprint test grid).
//   - hotpath: functions reachable from //vpm:hotpath roots must not
//     allocate per packet (runtime twin: core.AllocsPerPktBudget).
//   - fsyncdiscipline: segstore renames must ride the
//     write-temp → fsync → rename → fsync-dir commit sequence
//     (runtime twin: the FaultFS crash-point sweep).
//   - errwrap: sentinel errors are matched with errors.Is/As, never
//     == or message text (runtime twin: every typed-error test).
//
// The root package's TestTreeIsClean runs all four over the whole
// module (go test -run TestTreeIsClean .); live findings fail it.
package analysis

import (
	"go/token"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass in reports and //lint:ignore directives.
	Name string
	// Doc is a one-paragraph description of what the pass checks.
	Doc string
	// Run applies the pass to one package.
	Run func(*Pass) (any, error)
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the offending syntax.
	Pos token.Pos
	// Message states the violation.
	Message string
	// Fix is the remediation hint printed alongside the position —
	// every invariant has a known-good idiom.
	Fix string
}
