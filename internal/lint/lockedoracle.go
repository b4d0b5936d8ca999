package lint

import (
	"go/ast"
	"go/types"
)

// LockedOracle flags scheduler-yielding operations inside mutex-locked
// regions: calls to ts.Funnel.Next (which may open the combining
// window and Gosched), runtime.Gosched, time.Sleep, and channel sends,
// receives or selects, performed after a sync.Mutex/RWMutex Lock/RLock (or a
// lock on a type embedding one) with no intervening unlock on the same
// statement path.
//
// This is the invariant behind the Next/NextLocked API split (ts/funnel.go):
// a yield while engine locks are held extends every blocked transaction's
// wait — the PR 8 convoy hazard — and the MV/L and 1V end-timestamp draws
// happen exactly there (mv/commit.go, sv/tx.go). The PR 5 bug class
// (releasing locks before the draw) becomes this rule's mirror image: once
// the draw must sit inside the locked region, the region must not yield.
//
// The analysis is a per-function, path-insensitive sequential scan:
//   - Lock/RLock raises the lock depth, Unlock/RUnlock lowers it; a
//     successful `if mu.TryLock() { ... }` body runs at raised depth.
//   - Depth changes inside a branch do not propagate past it (a branch that
//     locks and returns does not poison the fallthrough path).
//   - Function literals are scanned at depth zero: a closure's execution
//     context is unknown, so only its own locking is checked.
//   - Functions whose contract is "called with locks held" are annotated
//     //mvlint:locked and scanned starting at depth one (ts.Funnel.combine
//     is the canonical case).
var LockedOracle = &Analyzer{
	Name: "lockedoracle",
	Doc:  "no yield (Funnel.Next, Gosched, Sleep, channel op) inside a held mutex region",
	Run:  runLockedOracle,
}

func runLockedOracle(prog *Program, report Reporter) error {
	for _, pkg := range prog.Pkgs {
		if pkg.Info == nil {
			continue
		}
		s := &lockScan{prog: prog, info: pkg.Info, report: report}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				depth := 0
				if hasAnnotation(funcDoc(fd), "locked") {
					depth = 1
				}
				s.block(fd.Body, depth)
			}
		}
	}
	return nil
}

type lockScan struct {
	prog   *Program
	info   *types.Info
	report Reporter
}

func (s *lockScan) flag(pos ast.Node, what string) {
	s.report(s.prog.Position(pos.Pos()),
		"%s inside a mutex-locked region: a yield here convoys every goroutine blocked on the lock (draw through ts.Funnel.NextLocked, or move the operation outside the locked region)", what)
}

// block scans statements sequentially, threading the lock depth, and
// returns the depth at the end of the block.
func (s *lockScan) block(b *ast.BlockStmt, depth int) int {
	for _, st := range b.List {
		depth = s.stmt(st, depth)
	}
	return depth
}

// stmt scans one statement at the given lock depth and returns the depth
// for the statement that follows it.
func (s *lockScan) stmt(st ast.Stmt, depth int) int {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			fn := calleeFunc(s.info, call)
			switch {
			case s.isMutexOp(fn, "Lock", "RLock"):
				s.exprs(depth, call.Args...)
				return depth + 1
			case s.isMutexOp(fn, "Unlock", "RUnlock"):
				s.exprs(depth, call.Args...)
				return max(depth-1, 0)
			}
		}
		s.exprs(depth, st.X)
	case *ast.SendStmt:
		if depth > 0 {
			s.flag(st, "channel send")
		}
		s.exprs(depth, st.Chan, st.Value)
	case *ast.AssignStmt:
		s.exprs(depth, st.Rhs...)
		s.exprs(depth, st.Lhs...)
	case *ast.ReturnStmt:
		s.exprs(depth, st.Results...)
	case *ast.IncDecStmt:
		s.exprs(depth, st.X)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					s.exprs(depth, vs.Values...)
				}
			}
		}
	case *ast.DeferStmt:
		// A deferred unlock keeps the region open to function end (depth is
		// simply not lowered). The deferred call's arguments are evaluated
		// here and now, at the current depth; the call itself runs at
		// return, outside this scan's model.
		s.exprs(depth, st.Call.Args...)
	case *ast.GoStmt:
		// The new goroutine does not inherit the spawner's locks; argument
		// evaluation happens on the spawning path.
		s.exprs(depth, st.Call.Args...)
		if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
			s.block(lit.Body, 0)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			depth = s.stmt(st.Init, depth)
		}
		s.exprs(depth, st.Cond)
		bodyDepth := depth
		if call, ok := ast.Unparen(st.Cond).(*ast.CallExpr); ok {
			if s.isMutexOp(calleeFunc(s.info, call), "TryLock", "TryRLock") {
				bodyDepth = depth + 1
			}
		}
		s.block(st.Body, bodyDepth)
		if st.Else != nil {
			s.stmt(st.Else, depth)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			depth = s.stmt(st.Init, depth)
		}
		if st.Cond != nil {
			s.exprs(depth, st.Cond)
		}
		if st.Post != nil {
			s.stmt(st.Post, depth)
		}
		s.block(st.Body, depth)
	case *ast.RangeStmt:
		s.exprs(depth, st.X)
		s.block(st.Body, depth)
	case *ast.SwitchStmt:
		if st.Init != nil {
			depth = s.stmt(st.Init, depth)
		}
		if st.Tag != nil {
			s.exprs(depth, st.Tag)
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			s.exprs(depth, cc.List...)
			for _, bs := range cc.Body {
				s.stmt(bs, depth)
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			depth = s.stmt(st.Init, depth)
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, bs := range cc.Body {
				s.stmt(bs, depth)
			}
		}
	case *ast.SelectStmt:
		if depth > 0 {
			s.flag(st, "select (channel wait)")
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				// The comm clauses are already covered by the select
				// diagnostic; scan them only for nested operations.
				s.stmt(cc.Comm, 0)
			}
			for _, bs := range cc.Body {
				s.stmt(bs, depth)
			}
		}
	case *ast.BlockStmt:
		// A bare block shares the surrounding statement path: its lock
		// transitions persist.
		return s.block(st, depth)
	case *ast.LabeledStmt:
		return s.stmt(st.Stmt, depth)
	}
	return depth
}

// exprs scans expressions for yielding operations at the given depth.
// Function literal bodies are scanned separately at depth zero.
func (s *lockScan) exprs(depth int, list ...ast.Expr) {
	for _, e := range list {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				s.block(n.Body, 0)
				return false
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" && depth > 0 {
					s.flag(n, "channel receive")
				}
			case *ast.CallExpr:
				if depth > 0 {
					if what := s.yieldingCall(n); what != "" {
						s.flag(n, what)
					}
				}
			}
			return true
		})
	}
}

// yieldingCall names the yielding operation a call performs, or returns ""
// for a benign call.
func (s *lockScan) yieldingCall(call *ast.CallExpr) string {
	fn := calleeFunc(s.info, call)
	if fn == nil {
		return ""
	}
	switch {
	case isPkgFunc(fn, "runtime", "Gosched"):
		return "runtime.Gosched"
	case isPkgFunc(fn, "time", "Sleep"):
		return "time.Sleep"
	case isMethodOn(fn, []string{"Next"}, "Funnel", "internal/ts"):
		return "ts.Funnel." + fn.Name() + " (window-opening draw)"
	}
	return ""
}

// isMutexOp reports whether fn is one of the named methods on sync.Mutex,
// sync.RWMutex or the sync.Locker interface (which covers locks reached
// through embedding: the selection resolves to the sync method itself).
func (s *lockScan) isMutexOp(fn *types.Func, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	tn, _ := recvInfo(fn)
	if tn != "Mutex" && tn != "RWMutex" && tn != "Locker" {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}
