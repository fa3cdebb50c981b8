package vpm

// This file is the docs-link checker: it fails CI when docs/*.md,
// README.md or ROADMAP.md reference a file that no longer exists or a
// Go symbol (`pkg.Name`, `Type.Member`, `pkg.Type.Member`) that the
// codebase no longer declares outside its tests. The symbol index is
// read from the module's one type-checked view (loadModule), so the
// check needs no maintenance as the code evolves — renaming a function and forgetting
// the docs is exactly what it catches.
//
// Matching is deliberately conservative: only backticked tokens that
// unambiguously look like repository paths or resolve their first
// component against this module's packages/types are judged; stdlib
// references, shell snippets and wildcard patterns are ignored, so the
// checker cannot produce false alarms as prose changes.

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docFiles returns the documentation files under the checker's watch.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", "ROADMAP.md"}
	matches, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, matches...)
	for _, f := range []string{"README.md", "ROADMAP.md"} {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("%s missing: %v", f, err)
		}
	}
	return files
}

// symbolIndex holds what the codebase exports.
type symbolIndex struct {
	pkgs    map[string]map[string]bool // package name -> top-level idents
	members map[string]map[string]bool // type name -> methods + fields
}

// buildSymbolIndex reads the non-test declarations of every package of
// the module from its one type-checked view.
func buildSymbolIndex(t *testing.T) *symbolIndex {
	t.Helper()
	idx := &symbolIndex{
		pkgs:    make(map[string]map[string]bool),
		members: make(map[string]map[string]bool),
	}
	member := func(typ, name string) {
		if idx.members[typ] == nil {
			idx.members[typ] = make(map[string]bool)
		}
		idx.members[typ][name] = true
	}
	for _, pkg := range loadModule(t) {
		nonTest := func(obj types.Object) bool { return !isTestFile(pkg.Fset.Position(obj.Pos()).Filename) }
		if !slices.ContainsFunc(pkg.Files, func(f *ast.File) bool { return !isTestFile(fileName(pkg, f)) }) {
			continue
		}
		syms := idx.pkgs[pkg.Types.Name()]
		if syms == nil {
			syms = make(map[string]bool)
			idx.pkgs[pkg.Types.Name()] = syms
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !nonTest(obj) {
				continue
			}
			syms[name] = true
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := range named.NumMethods() {
				if m := named.Method(i); nonTest(m) {
					member(name, m.Name())
				}
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := range u.NumFields() {
					if f := u.Field(i); !f.Embedded() {
						member(name, f.Name())
					}
				}
			case *types.Interface:
				for i := range u.NumExplicitMethods() {
					member(name, u.ExplicitMethod(i).Name())
				}
			}
		}
	}
	return idx
}

var (
	backtickRe = regexp.MustCompile("`([^`]+)`")
	identRe    = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)
)

// inlineCodeTokens extracts the inline-code spans of a Markdown
// document. Fenced code blocks (```) are skipped — their unpaired
// backticks would otherwise shift every subsequent pairing — and
// spans are matched per line, so a stray backtick never pairs across
// lines.
func inlineCodeTokens(doc string) []string {
	var out []string
	inFence := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range backtickRe.FindAllStringSubmatch(line, -1) {
			out = append(out, m[1])
		}
	}
	return out
}

// pathLike reports whether a token should be checked as a repository
// path, returning the cleaned path.
func pathLike(tok string) (string, bool) {
	if strings.ContainsAny(tok, "*<>{}?=$ ") || strings.Contains(tok, "://") {
		return "", false
	}
	tok = strings.TrimPrefix(tok, "./")
	prefixes := []string{"internal/", "cmd/", "examples/", "docs/", ".github/"}
	for _, p := range prefixes {
		if strings.HasPrefix(tok, p) {
			return tok, true
		}
	}
	switch filepath.Ext(tok) {
	case ".go", ".md", ".yml", ".json", ".mod":
		// Bare filenames ("main.go") are ambiguous; only check rooted
		// ones and well-known root files.
		if !strings.Contains(tok, "/") {
			root := map[string]bool{"README.md": true, "ROADMAP.md": true, "CHANGES.md": true,
				"PAPER.md": true, "PAPERS.md": true, "SNIPPETS.md": true, "ISSUE.md": true,
				"vpm.go": true, "go.mod": true, "bench_test.go": true, "vpm_test.go": true}
			return tok, root[tok]
		}
		return tok, true
	}
	return "", false
}

// TestDocsReferences is the docs-link checker CI gate.
func TestDocsReferences(t *testing.T) {
	t.Parallel()
	idx := buildSymbolIndex(t)
	var problems []string
	for _, file := range docFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range inlineCodeTokens(string(data)) {
			tok := strings.Trim(m, ".,;:()")
			if p, ok := pathLike(tok); ok {
				if _, err := os.Stat(p); err != nil {
					problems = append(problems, file+": stale path reference `"+tok+"`")
				}
				continue
			}
			if bad, why := checkSymbol(idx, tok); bad {
				problems = append(problems, file+": stale symbol reference `"+tok+"` ("+why+")")
			}
		}
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// checkSymbol judges a dotted token against the symbol index. It only
// reports a problem when the first component resolves to something the
// module owns; unknown qualifiers (stdlib, prose) are skipped.
func checkSymbol(idx *symbolIndex, tok string) (bad bool, why string) {
	parts := strings.Split(tok, ".")
	if len(parts) < 2 || len(parts) > 3 {
		return false, ""
	}
	for _, p := range parts {
		if !identRe.MatchString(p) {
			return false, ""
		}
	}
	if syms, ok := idx.pkgs[parts[0]]; ok {
		// pkg.Name or pkg.Type.Member
		if !syms[parts[1]] {
			return true, "package " + parts[0] + " has no " + parts[1]
		}
		if len(parts) == 3 && !idx.members[parts[1]][parts[2]] {
			return true, "type " + parts[1] + " has no " + parts[2]
		}
		return false, ""
	}
	if members, ok := idx.members[parts[0]]; ok && len(parts) == 2 {
		// Type.Member
		if !members[parts[1]] {
			return true, "type " + parts[0] + " has no " + parts[1]
		}
		return false, ""
	}
	return false, ""
}
