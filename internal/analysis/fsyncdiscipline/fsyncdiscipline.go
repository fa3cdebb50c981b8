// Package fsyncdiscipline enforces segstore's durability contract at
// compile time. The store commits two ways. A seal appends one record
// to the manifest log and syncs it, after syncing the segment and its
// directory entry; that order is held at test time by
// TestSealCostIsFlat. A verdict report is one block appended to its
// epoch's segment and a sync of that file (TestPutReportCostIsFlat).
// The one file that replaces another — a manifest checkpoint — goes
// through one sequence: write temp file, fsync the file, rename over the
// committed name, fsync the directory. A rename that skips the preceding file sync can commit a
// name whose contents are still in the page cache; one that skips the
// following directory sync can lose the rename itself. The FaultFS
// crash-point sweep catches these at test time, ~10 minutes after the
// bug ships; this pass catches them at the keystroke.
//
// Rules, applied to non-test files of package segstore:
//
//   - every call to Rename on an FS-typed value (any type whose method
//     set includes SyncDir) must have a file Sync() call before it and
//     a SyncDir() call after it in the same function — except inside a
//     forwarding method that is itself named Rename (the FaultFS
//     pattern);
//   - filesystem mutations must go through the FS abstraction: direct
//     os.Rename/os.WriteFile/... calls are forbidden outside the file
//     that declares DirFS, because an operation the FS interface never
//     sees is an operation the crash-point sweep can never crash.
package fsyncdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"

	"vpm/internal/analysis"
)

// Analyzer is the fsyncdiscipline pass.
var Analyzer = &analysis.Analyzer{
	Name: "fsyncdiscipline",
	Doc: "segstore renames must follow write-temp → fsync → rename → fsync-dir, and all " +
		"filesystem mutation must go through the FS abstraction",
	Run: run,
}

// osMutators are the direct-filesystem calls that bypass crash-point
// injection.
var osMutators = map[string]bool{
	"Rename": true, "WriteFile": true, "Create": true, "OpenFile": true,
	"Remove": true, "RemoveAll": true, "Truncate": true, "Mkdir": true, "MkdirAll": true,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() != "segstore" {
		return nil, nil
	}
	fsImplFiles := filesDeclaring(pass, "DirFS")
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		filename := pass.Fset.Position(file.Pos()).Filename
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkDirectOS(pass, fd, fsImplFiles[filename])
			checkRenameSequence(pass, fd)
		}
	}
	return nil, nil
}

// filesDeclaring maps filenames that declare the named type.
func filesDeclaring(pass *analysis.Pass, typeName string) map[string]bool {
	out := make(map[string]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if ok && ts.Name.Name == typeName {
				out[pass.Fset.Position(file.Pos()).Filename] = true
			}
			return true
		})
	}
	return out
}

// checkDirectOS flags os.* filesystem mutation outside the FS
// implementation file.
func checkDirectOS(pass *analysis.Pass, fd *ast.FuncDecl, inFSImplFile bool) {
	if inFSImplFile {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" || !osMutators[fn.Name()] {
			return true
		}
		pass.Report(analysis.Diagnostic{
			Pos:     call.Pos(),
			Message: "direct os." + fn.Name() + " bypasses the FS abstraction; the crash-point sweep cannot crash what it cannot see",
			Fix:     "route the operation through the segstore.FS interface",
		})
		return true
	})
}

// fsCall classifies one interesting call site in source order.
type fsCall struct {
	pos  token.Pos
	kind int // sync, rename, syncdir
}

const (
	kindSync = iota
	kindRename
	kindSyncDir
)

// checkRenameSequence requires Sync-before and SyncDir-after every
// FS.Rename in the function.
func checkRenameSequence(pass *analysis.Pass, fd *ast.FuncDecl) {
	// An FS implementation forwarding its own Rename (FaultFS wrapping
	// the inner FS) is not a commit sequence.
	if fd.Recv != nil && fd.Name.Name == "Rename" {
		return
	}
	var calls []fsCall
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Sync":
			if len(call.Args) == 0 {
				calls = append(calls, fsCall{call.Pos(), kindSync})
			}
		case "SyncDir":
			calls = append(calls, fsCall{call.Pos(), kindSyncDir})
		case "Rename":
			if recvHasSyncDir(pass, sel) {
				calls = append(calls, fsCall{call.Pos(), kindRename})
			}
		}
		return true
	})
	for i, c := range calls {
		if c.kind != kindRename {
			continue
		}
		var syncBefore, dirAfter bool
		for _, before := range calls[:i] {
			if before.kind == kindSync {
				syncBefore = true
			}
		}
		for _, after := range calls[i+1:] {
			if after.kind == kindSyncDir {
				dirAfter = true
			}
		}
		switch {
		case !syncBefore:
			pass.Report(analysis.Diagnostic{
				Pos:     c.pos,
				Message: "Rename without a preceding file Sync: the committed name may point at unflushed data",
				Fix:     "commit via write-temp → Sync → Rename → SyncDir",
			})
		case !dirAfter:
			pass.Report(analysis.Diagnostic{
				Pos:     c.pos,
				Message: "Rename without a following SyncDir: the rename itself is not durable until the directory entry is flushed",
				Fix:     "commit via write-temp → Sync → Rename → SyncDir",
			})
		}
	}
}

// recvHasSyncDir reports whether the selector's receiver type exposes
// a SyncDir method — the structural signature of the FS interface and
// its implementations.
func recvHasSyncDir(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, pass.Pkg, "SyncDir")
	_, isFunc := obj.(*types.Func)
	return isFunc
}
