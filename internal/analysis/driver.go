package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"vpm/internal/analysis/loader"
)

// Pass carries one (analyzer, package) unit of work, mirroring
// x/tools' analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// PkgPath is the load path (external test packages carry a _test
	// suffix).
	PkgPath string
	// Report records one diagnostic; the driver applies suppression.
	Report func(Diagnostic)
}

// Finding is one driver-level result: a diagnostic resolved to a file
// position, with suppression applied.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Fix      string
	// Suppressed marks findings silenced by a justified //lint:ignore;
	// they are reported for transparency but do not fail the build.
	Suppressed bool
	// Reason is the suppressing directive's justification.
	Reason string
}

// String renders the finding as one line: position, analyzer,
// message, fix hint and any suppression.
func (f Finding) String() string {
	s := fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
	if f.Fix != "" {
		s += " (fix: " + f.Fix + ")"
	}
	if f.Suppressed {
		s += " (suppressed: " + f.Reason + ")"
	}
	return s
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzers map[string]bool // nil means "all"
	reason    string
}

// Run applies every analyzer to every package and returns the merged,
// position-sorted findings. Suppression: a comment of the form
//
//	//lint:ignore <analyzer[,analyzer...]|all> <justification>
//
// on the flagged line or the line above it downgrades matching
// findings to Suppressed. A directive without a justification is
// itself a finding — unexplained suppressions are how invariants rot.
func Run(pkgs []*loader.Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		ignores, malformed := collectIgnores(pkg)
		findings = append(findings, malformed...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				PkgPath:   pkg.PkgPath,
			}
			pass.Report = func(d Diagnostic) {
				f := Finding{
					Analyzer: a.Name,
					Pos:      pkg.Fset.Position(d.Pos),
					Message:  d.Message,
					Fix:      d.Fix,
				}
				if dir, ok := matchIgnore(ignores, f.Pos, a.Name); ok {
					f.Suppressed = true
					f.Reason = dir.reason
				}
				findings = append(findings, f)
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// collectIgnores indexes a package's //lint:ignore directives by
// (file, line) and reports malformed ones as findings.
func collectIgnores(pkg *loader.Package) (map[string]map[int]ignoreDirective, []Finding) {
	index := make(map[string]map[int]ignoreDirective)
	var malformed []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					malformed = append(malformed, Finding{
						Analyzer: "lint",
						Pos:      pos,
						Message:  "malformed //lint:ignore: need an analyzer list and a justification",
						Fix:      "write //lint:ignore <analyzer|all> <why this violation is safe>",
					})
					continue
				}
				dir := ignoreDirective{reason: strings.Join(fields[1:], " ")}
				if fields[0] != "all" {
					dir.analyzers = make(map[string]bool)
					for _, name := range strings.Split(fields[0], ",") {
						dir.analyzers[name] = true
					}
				}
				if index[pos.Filename] == nil {
					index[pos.Filename] = make(map[int]ignoreDirective)
				}
				index[pos.Filename][pos.Line] = dir
			}
		}
	}
	return index, malformed
}

// matchIgnore finds a directive covering pos: on the same line
// (trailing comment) or the line above (own-line comment).
func matchIgnore(index map[string]map[int]ignoreDirective, pos token.Position, analyzer string) (ignoreDirective, bool) {
	lines := index[pos.Filename]
	if lines == nil {
		return ignoreDirective{}, false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if dir, ok := lines[line]; ok {
			if dir.analyzers == nil || dir.analyzers[analyzer] {
				return dir, true
			}
		}
	}
	return ignoreDirective{}, false
}
