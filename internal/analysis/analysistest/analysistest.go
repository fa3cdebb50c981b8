// Package analysistest runs an analyzer over fixture packages under a
// testdata/src tree and checks its diagnostics against // want
// comments — the same convention as golang.org/x/tools'
// analysistest, reimplemented over this repository's loader.
//
// A fixture line expecting diagnostics carries a trailing comment:
//
//	for k := range m { out = append(out, k) } // want `leaks map iteration order`
//
// Each backquoted (or double-quoted) string is a regexp that must
// match the message of exactly one diagnostic reported on that line.
// Diagnostics suppressed by a justified //lint:ignore do not count —
// which is how the suites pin the suppression mechanism itself.
package analysistest

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vpm/internal/analysis"
	"vpm/internal/analysis/loader"
)

// Run loads each named fixture package from testdata/src/<pkg>, runs
// the analyzer, and reports want/got mismatches on t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	src := filepath.Join(testdata, "src")
	loaded, err := loader.Load(&loader.Config{Dir: src, Tests: true}, pkgs...)
	if err != nil {
		t.Fatalf("analysistest: loading fixtures: %v", err)
	}
	findings, err := analysis.Run(loaded, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("analysistest: running %s: %v", a.Name, err)
	}

	wants := collectWants(t, loaded)
	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		key := lineKey{f.Pos.Filename, f.Pos.Line}
		if matchWant(wants[key], f.Message) {
			continue
		}
		t.Errorf("%s: unexpected diagnostic: [%s] %s", f.Pos, f.Analyzer, f.Message)
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, w.re.String())
			}
		}
	}
}

type lineKey struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

// wantRE extracts the expectation strings from a comment:
// backquoted or double-quoted regexps after the word "want".
var wantRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// collectWants indexes // want comments by (file, line).
func collectWants(t *testing.T, pkgs []*loader.Package) map[lineKey][]*want {
	t.Helper()
	wants := make(map[lineKey][]*want)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(strings.TrimPrefix(c.Text, "//"), " want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
						expr := m[1]
						if expr == "" {
							expr = m[2]
						}
						re, err := regexp.Compile(expr)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", pos, expr, err)
						}
						key := lineKey{pos.Filename, pos.Line}
						wants[key] = append(wants[key], &want{re: re})
					}
				}
			}
		}
	}
	return wants
}

// matchWant consumes the first unmatched want whose regexp matches.
func matchWant(ws []*want, message string) bool {
	for _, w := range ws {
		if !w.matched && w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}
