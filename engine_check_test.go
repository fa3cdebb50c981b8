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
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestOnePipeline(t *testing.T) {
	guarded := map[string]bool{
		"RunSegment": true, "NewWindowedStore": true, "NewRollingVerifier": true,
		"NewEpochDriver": true, "NewEpochDriverFor": true, "IngestBundle": true,
	}
	allowed := []string{"internal/engine/", "internal/core/", "internal/netsim/"}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "bench" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		path = filepath.ToSlash(path)
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
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
	if err != nil {
		t.Fatal(err)
	}
}
