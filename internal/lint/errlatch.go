package lint

import (
	"go/ast"
	"go/types"
)

// ErrLatch is a scoped errcheck for the durability path: discarding the
// error from a wal/ckpt Append, Flush, Sync, Write, Rotate or Close, or from
// a transaction Commit/CommitTS/Abort, is a diagnostic.
//
// These errors are load-bearing in a specific way most errors are not: the
// log latches its first failure and the engine above it flips read-only
// (docs/durability.md, "Degradation"), so a dropped error here is not a
// missed log line — it is an acknowledged commit that was never durable
// (the exact bug class PR 7 fixed in wal.Append's per-batch outcome
// delivery). A transaction Commit that is not checked is a write path that
// cannot distinguish commit from abort.
//
// Only implicit discards are flagged: a bare call statement, `go call()`, or
// `defer call()`. An explicit `_ = call()` is allowed — it is greppable and
// visibly deliberate at the call site. Test files are not scanned.
var ErrLatch = &Analyzer{
	Name: "errlatch",
	Doc:  "no silently dropped errors from wal/ckpt Append/Flush/Sync/Close or Tx Commit/Abort",
	Run:  runErrLatch,
}

func runErrLatch(prog *Program, report Reporter) error {
	for _, pkg := range prog.Pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var call *ast.CallExpr
				switch n := n.(type) {
				case *ast.ExprStmt:
					call, _ = ast.Unparen(n.X).(*ast.CallExpr)
				case *ast.GoStmt:
					call = n.Call
				case *ast.DeferStmt:
					call = n.Call
				}
				if call == nil {
					return true
				}
				fn := calleeFunc(pkg.Info, call)
				if fn == nil || !latchedErrorMethod(fn) {
					return true
				}
				tn, pp := recvInfo(fn)
				report(prog.Position(call.Pos()),
					"discarded error from (%s).%s — the first durability error latches and must flow up (handle it, or discard explicitly with `_ =` where ignoring is provably safe); receiver declared in %s",
					tn, fn.Name(), pp)
				return true
			})
		}
	}
	return nil
}

// latchedErrorMethod reports whether fn is in errlatch's scope: an
// error-returning durability method on a wal/ckpt type, or Commit/Abort on
// a transaction type.
func latchedErrorMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	// Only methods that actually return an error are in scope (e.g.
	// ckpt.Store.Dir returns none and is fine to call bare).
	res := sig.Results()
	returnsErr := false
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			returnsErr = true
		}
	}
	if !returnsErr {
		return false
	}
	_, pp := recvInfo(fn)
	switch fn.Name() {
	case "Append", "Flush", "Sync", "Close", "Write", "Rotate":
		return pathHasSuffix(pp, "internal/wal") || pathHasSuffix(pp, "internal/ckpt")
	case "Commit", "CommitTS", "Abort":
		return pathHasSuffix(pp, "internal/core") || pathHasSuffix(pp, "internal/mv") ||
			pathHasSuffix(pp, "internal/sv")
	}
	return false
}

func pathHasSuffix(path, suffix string) bool {
	return path == suffix || (len(path) > len(suffix) && path[len(path)-len(suffix)-1] == '/' &&
		path[len(path)-len(suffix):] == suffix)
}
