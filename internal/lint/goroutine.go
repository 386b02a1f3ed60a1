package lint

import (
	"go/ast"
	"go/types"
)

var analyzerGoroutineHygiene = &Analyzer{
	Name: "goroutinehygiene",
	Doc: "every goroutine spawned by library code must be reapable: its body must " +
		"reference a context, a done/stop channel, or a WaitGroup",
	Run: runGoroutineHygiene,
}

func runGoroutineHygiene(p *Pass) {
	for _, pkg := range p.Pkgs {
		// Library code only: main packages own the process lifetime, and
		// the goroutine leaks found so far were all in internal packages.
		if pkg.Types == nil || pkg.Types.Name() == "main" {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				body, bodyPkg := goTargetBody(p.Graph, pkg, gs.Call)
				if body == nil {
					return true // body not in the module; nothing to judge
				}
				if !hasLifecycleRef(bodyPkg, body) {
					p.Reportf(gs.Pos(),
						"plumb a ctx or done channel into the goroutine (or track it with a WaitGroup) so shutdown can reap it",
						"goroutine body references no context, channel, or WaitGroup — nothing can stop or await it")
				}
				return true
			})
		}
	}
}

// goTargetBody resolves the body the go statement will run, with the
// package it lives in: a literal's body, or the declaration the call
// graph resolves the call to.
func goTargetBody(g *CallGraph, pkg *Package, call *ast.CallExpr) (*ast.BlockStmt, *Package) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return lit.Body, pkg
	}
	if node := g.Nodes[resolveCallee(pkg, call)]; node != nil {
		return node.Decl.Body, node.Pkg
	}
	return nil, nil
}

// hasLifecycleRef reports whether the body (including nested literals)
// touches anything a shutdown path could use to stop or await it: a
// context.Context, a sync.WaitGroup, or any channel-typed value.
func hasLifecycleRef(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		tv, ok := pkg.Info.Types[e]
		if !ok || tv.Type == nil {
			return true
		}
		t := tv.Type
		if _, isChan := t.Underlying().(*types.Chan); isChan ||
			isNamedType(t, "context", "Context") ||
			isNamedType(t, "sync", "WaitGroup") {
			found = true
			return false
		}
		return true
	})
	return found
}
