package lint

import (
	"go/ast"
	"go/types"
)

// This file is lockorder's interprocedural substrate: a module-wide
// call graph over every loaded package, built from the go/types results
// the loader already produces. Resolution is type-based and
// deliberately conservative — a call through an interface method, a func
// value, or a builtin resolves to a nil Callee, and lockorder treats
// unknown callees as contributing nothing rather than everything. That
// keeps the suite free of x/tools-style whole-program pointer analysis
// while still following the concrete call chains (hub → session →
// subscriber, blockcache's global lock → a cache's own) the lock
// hierarchy actually runs through.

// CallSite is one call expression inside a function body.
type CallSite struct {
	// Callee is the statically resolved target; nil means unknown
	// (interface method, func value, builtin — the conservative case).
	Callee *types.Func
	// Go marks a call that is the operand of a go statement. Calls inside
	// a go-spawned FuncLit body are NOT recorded against the enclosing
	// function at all: they run concurrently, so they inherit no held
	// locks.
	Go bool
}

// FuncNode is one declared function or method in the module call graph.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls lists every call made synchronously or via defer on the
	// function's own goroutine, plus go-statement launch sites.
	Calls []CallSite
}

// CallGraph is the module-wide graph keyed by *types.Func identity
// (shared across packages because the loader memoizes type-checking on
// one FileSet).
type CallGraph struct {
	Nodes map[*types.Func]*FuncNode
	// order preserves deterministic iteration: declaration order within
	// each package, packages in the order they were given to Build.
	order []*FuncNode
}

// Funcs returns every node in deterministic (declaration) order.
func (g *CallGraph) Funcs() []*FuncNode { return g.order }

// Lookup finds the node for the named function: recv is the bare
// receiver type name ("" for package-level functions).
//
// Kept: the call graph tests find fixture functions by name with it.
func (g *CallGraph) Lookup(pkgPath, recv, name string) *FuncNode {
	for _, n := range g.order {
		if n.Pkg.Path != pkgPath || n.Fn.Name() != name {
			continue
		}
		if recvName(n.Fn) == recv {
			return n
		}
	}
	return nil
}

// recvName returns the bare type name of a method's receiver ("" for a
// package-level function).
func recvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// BuildCallGraph constructs the module call graph for the loaded
// packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: map[*types.Func]*FuncNode{}}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
				collectCalls(pkg, fd.Body, node)
				g.Nodes[fn] = node
				g.order = append(g.order, node)
			}
		}
	}
	return g
}

// collectCalls walks a function body recording call sites on node. The
// walk descends into deferred and immediately-invoked function literals
// (they run on the same goroutine) but not into go-spawned literal
// bodies.
func collectCalls(pkg *Package, body ast.Node, node *FuncNode) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			node.Calls = append(node.Calls, CallSite{Callee: resolveCallee(pkg, n.Call), Go: true})
			// Arguments to the spawned call are evaluated on this
			// goroutine; the spawned body is not.
			for _, arg := range n.Call.Args {
				if _, isLit := arg.(*ast.FuncLit); !isLit {
					collectCalls(pkg, arg, node)
				}
			}
			if _, isLit := ast.Unparen(n.Call.Fun).(*ast.FuncLit); !isLit {
				collectCalls(pkg, n.Call.Fun, node)
			}
			return false
		case *ast.CallExpr:
			if !isConversion(pkg, n) {
				node.Calls = append(node.Calls, CallSite{Callee: resolveCallee(pkg, n)})
			}
		}
		return true
	})
}

// isConversion reports whether the call expression is a type conversion
// (uint32(x), string(b)) rather than a call.
func isConversion(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// resolveCallee statically resolves a call's target function. It returns
// nil for anything dynamic: interface method calls, func values,
// builtins.
func resolveCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil // method value / field of func type
			}
			f, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if recvIsInterface(f) {
				return nil // dynamic dispatch: conservative
			}
			return f
		}
		// No selection entry: qualified identifier (pkg.Fn).
		if f, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			if recvIsInterface(f) {
				return nil
			}
			return f
		}
	}
	return nil
}

// recvIsInterface reports whether fn is declared on an interface type.
func recvIsInterface(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, isIface := sig.Recv().Type().Underlying().(*types.Interface)
	return isIface
}
