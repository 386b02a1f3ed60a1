package lint

import (
	"go/ast"
	"maps"
)

// flow is the one statement-order walker behind the two flow checks
// (lockedsend, lockorder). It walks a function body in source
// order with a per-path state of type map[K]V and hands each check the
// events it cares about through its hooks; a check keeps only its state
// type and its rules. The walk is a heuristic tuned never to cry wolf:
//
//   - each branch (an if or else arm, a loop body with its post
//     statement, a switch or select clause) runs on a copy of the state,
//     so what one arm does never leaks into the code after it;
//   - a block stops at a return: what follows is unreachable;
//   - a deferred call runs on a copy of the state at the defer site: a
//     deferred unlock keeps the lock held for the rest of the body;
//   - a function literal called on the spot is walked with the current
//     state, a deferred one with a copy of it; one spawned by go, stored
//     or passed does not run here, so it is queued and walked later from
//     an empty state.
//
// Both hooks are optional.
type flow[K comparable, V any] struct {
	pkg *Package
	// call sees every call (conversions aside) where it is evaluated.
	call func(st map[K]V, call *ast.CallExpr)
	// send sees a send statement once its operands are walked.
	send func(st map[K]V, s *ast.SendStmt, how sendKind)

	queue []*ast.FuncLit
}

// sendKind says whether a send statement can block.
type sendKind int

const (
	sendBlocks sendKind = iota // a bare send
	sendSelect                 // a comm clause of a select without a default
	sendPolls                  // a comm clause of a select with a default
)

// walk walks one declared body, then every literal the walk queued,
// each from an empty state.
func (f *flow[K, V]) walk(body *ast.BlockStmt) {
	f.stmts(map[K]V{}, body.List)
	for len(f.queue) > 0 {
		lit := f.queue[0]
		f.queue = f.queue[1:]
		f.stmts(map[K]V{}, lit.Body.List)
	}
}

// stmts walks a statement list, stopping after a return.
func (f *flow[K, V]) stmts(st map[K]V, list []ast.Stmt) {
	for _, s := range list {
		if f.stmt(st, s) {
			return
		}
	}
}

// branch walks statements on a copy of st.
func (f *flow[K, V]) branch(st map[K]V, list ...ast.Stmt) {
	f.stmts(maps.Clone(st), list)
}

// stmt walks one statement; it reports whether control leaves the
// function there.
func (f *flow[K, V]) stmt(st map[K]V, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		f.stmts(st, s.List)
	case *ast.LabeledStmt:
		return f.stmt(st, s.Stmt)
	case *ast.ExprStmt:
		f.expr(st, s.X)
	case *ast.IncDecStmt:
		f.expr(st, s.X)
	case *ast.DeclStmt:
		f.expr(st, s.Decl)
	case *ast.SendStmt:
		f.sendStmt(st, s, sendBlocks)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			f.expr(st, e)
		}
		for _, e := range s.Lhs {
			f.expr(st, e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			f.expr(st, e)
		}
		return true
	case *ast.IfStmt:
		f.stmt(st, s.Init)
		f.expr(st, s.Cond)
		f.branch(st, s.Body)
		f.branch(st, s.Else)
	case *ast.ForStmt:
		f.stmt(st, s.Init)
		f.expr(st, s.Cond)
		f.branch(st, s.Body, s.Post)
	case *ast.RangeStmt:
		f.expr(st, s.X)
		f.branch(st, s.Body)
	case *ast.SwitchStmt:
		f.stmt(st, s.Init)
		f.expr(st, s.Tag)
		for _, cl := range s.Body.List {
			f.branch(st, cl.(*ast.CaseClause).Body...)
		}
	case *ast.TypeSwitchStmt:
		f.stmt(st, s.Init)
		for _, cl := range s.Body.List {
			f.branch(st, cl.(*ast.CaseClause).Body...)
		}
	case *ast.SelectStmt:
		how := sendSelect
		for _, cl := range s.Body.List {
			if cl.(*ast.CommClause).Comm == nil {
				how = sendPolls
			}
		}
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			arm := maps.Clone(st)
			if send, ok := cc.Comm.(*ast.SendStmt); ok {
				f.sendStmt(arm, send, how)
			} else {
				f.stmt(arm, cc.Comm)
			}
			f.stmts(arm, cc.Body)
		}
	case *ast.GoStmt:
		// The arguments are evaluated here; the call runs on its own
		// goroutine.
		for _, a := range s.Call.Args {
			f.expr(st, a)
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			f.queue = append(f.queue, lit)
		} else {
			f.expr(st, s.Call.Fun)
		}
	case *ast.DeferStmt:
		// The arguments are evaluated here; the call runs at the end.
		for _, a := range s.Call.Args {
			f.expr(st, a)
		}
		later := maps.Clone(st)
		if f.call != nil {
			f.call(later, s.Call)
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			f.stmts(later, lit.Body.List)
		}
	}
	return false
}

func (f *flow[K, V]) sendStmt(st map[K]V, s *ast.SendStmt, how sendKind) {
	f.expr(st, s.Chan)
	f.expr(st, s.Value)
	if f.send != nil {
		f.send(st, s, how)
	}
}

// expr walks the calls of one expression in source order. A literal
// called on the spot runs on st; any other literal is queued.
func (f *flow[K, V]) expr(st map[K]V, n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			f.queue = append(f.queue, n)
			return false
		case *ast.CallExpr:
			if isConversion(f.pkg, n) {
				return true
			}
			if f.call != nil {
				f.call(st, n)
			}
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				for _, a := range n.Args {
					f.expr(st, a)
				}
				f.stmts(st, lit.Body.List)
				return false
			}
		}
		return true
	})
}
