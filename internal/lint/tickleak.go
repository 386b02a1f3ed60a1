package lint

import (
	"go/ast"
	"go/types"
)

var analyzerTickLeak = &Analyzer{
	Name: "tickleak",
	Doc: "no time.Tick (its ticker can never be stopped), and every time.NewTicker/" +
		"NewTimer owned by a function must be stopped in it",
	Run: runTickLeak,
}

func runTickLeak(p *Pass) {
	for _, pkg := range p.Pkgs {
		for _, body := range funcBodies(pkg) {
			scanTickLeak(p, pkg, body)
		}
	}
}

// scanTickLeak checks one declaration body, nested literals included —
// both for NewTicker/NewTimer detection and for the Stop search, so a
// deferred closure stopping the ticker satisfies the check.
func scanTickLeak(p *Pass, pkg *Package, body *ast.BlockStmt) {
	// Pass 1: collect tickers/timers bound to a local variable, and flag
	// the unstoppable patterns outright.
	type owned struct {
		obj types.Object
		pos ast.Node
		fn  string
	}
	var locals []owned
	assignedCalls := map[*ast.CallExpr]bool{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			if len(t.Rhs) != 1 || len(t.Lhs) != 1 {
				return true
			}
			call, ok := t.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := newTickerCall(pkg, call)
			if !ok {
				return true
			}
			assignedCalls[call] = true
			ident, ok := t.Lhs[0].(*ast.Ident)
			if !ok || ident.Name == "_" {
				p.Reportf(call.Pos(), "bind the ticker to a variable and defer its Stop",
					"time.%s result is discarded; its goroutine and channel leak", fn)
				return true
			}
			obj := pkg.Info.Defs[ident]
			if obj == nil {
				obj = pkg.Info.Uses[ident]
			}
			if obj != nil {
				locals = append(locals, owned{obj: obj, pos: call, fn: fn})
			}
		case *ast.ValueSpec:
			if len(t.Values) != 1 || len(t.Names) != 1 {
				return true
			}
			call, ok := t.Values[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := newTickerCall(pkg, call)
			if !ok {
				return true
			}
			assignedCalls[call] = true
			if obj := pkg.Info.Defs[t.Names[0]]; obj != nil {
				locals = append(locals, owned{obj: obj, pos: call, fn: fn})
			}
		}
		return true
	})

	// time.Tick, and NewTicker/NewTimer results that were never bound.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if path, name, ok := pkgFuncCall(pkg, call); ok && path == "time" {
			switch {
			case name == "Tick":
				p.Reportf(call.Pos(), "use time.NewTicker and defer its Stop",
					"time.Tick leaks its ticker for the life of the process")
			case (name == "NewTicker" || name == "NewTimer") && !assignedCalls[call]:
				p.Reportf(call.Pos(), "bind the ticker to a variable and defer its Stop",
					"time.%s result is not bound to a variable, so it can never be stopped", name)
			}
		}
		return true
	})

	// Pass 2: every bound ticker must be stopped somewhere in the body
	// (deferred closures included), unless ownership escapes.
	for _, o := range locals {
		stopped, escaped := false, false
		ast.Inspect(body, func(n ast.Node) bool {
			ident, ok := n.(*ast.Ident)
			if !ok || pkg.Info.Uses[ident] != o.obj {
				return true
			}
			switch use := tickerUse(body, ident); use {
			case "Stop":
				stopped = true
			case "escape":
				escaped = true
				// "select" (t.C, t.Reset) keeps ownership here: reading the
				// channel is exactly the case that must still Stop.
			}
			return true
		})
		if !stopped && !escaped {
			p.Reportf(o.pos.Pos(), "add `defer <ticker>.Stop()` (or stop it on every exit path)",
				"time.%s is never stopped in this function; its ticker leaks", o.fn)
		}
	}
}

// newTickerCall reports whether call is time.NewTicker or time.NewTimer.
func newTickerCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	if path, name, ok := pkgFuncCall(pkg, call); ok && path == "time" &&
		(name == "NewTicker" || name == "NewTimer") {
		return name, true
	}
	return "", false
}

// tickerUse classifies one use of a ticker variable: "Stop" (a .Stop
// call), "select" (field/channel access — fine), or "escape" (returned,
// passed, stored — ownership left this function, so Stop is someone
// else's job).
func tickerUse(body *ast.BlockStmt, ident *ast.Ident) string {
	// Find the innermost interesting parent of ident.
	use := "escape"
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := ast.Unparen(sel.X).(*ast.Ident); ok && x == ident {
			if sel.Sel.Name == "Stop" {
				use = "Stop"
			} else {
				use = "select" // t.C, t.Reset(...) — still owned here
			}
			return false
		}
		return true
	})
	return use
}
