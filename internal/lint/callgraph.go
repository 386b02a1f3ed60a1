package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the interprocedural substrate of vollint v2: a module-wide
// call graph over every loaded package, built from the go/types results
// the loader already produces. Resolution is type-based and
// deliberately conservative — a call through an interface method, a func
// value, or a builtin resolves to a nil Callee, and the checks built on
// the graph (lockorder, hotpathalloc) treat unknown callees as
// contributing nothing rather than everything. That keeps the suite free
// of x/tools-style whole-program pointer analysis while still following
// the concrete call chains (hub → session → subscriber, pushFrame →
// enqueue) the project's invariants actually run through.

// HotpathDirective marks a function whose body and module-resolved
// callees must stay allocation-free (checked by hotpathalloc).
const HotpathDirective = "vollint:hotpath"

// CallSite is one call expression inside a function body.
type CallSite struct {
	Pos  token.Pos
	Call *ast.CallExpr
	// Callee is the statically resolved target; nil means unknown
	// (interface method, func value, builtin — the conservative case).
	Callee *types.Func
	// Go marks a call that is the operand of a go statement; Defer marks
	// a deferred call. Calls inside a go-spawned FuncLit body are NOT
	// recorded against the enclosing function at all: they run
	// concurrently, so they inherit neither held locks nor the hot path.
	Go    bool
	Defer bool
}

// FuncNode is one declared function or method in the module call graph.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls lists every call made synchronously or via defer on the
	// function's own goroutine, plus go-statement launch sites.
	Calls []CallSite
	// Hotpath is set when the declaration carries //vollint:hotpath.
	Hotpath bool
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
				node := &FuncNode{
					Fn:      fn,
					Decl:    fd,
					Pkg:     pkg,
					Hotpath: hasHotpathDirective(fd),
				}
				collectCalls(pkg, fd.Body, node)
				g.Nodes[fn] = node
				g.order = append(g.order, node)
			}
		}
	}
	return g
}

// hasHotpathDirective reports whether the declaration's doc comment
// carries //vollint:hotpath.
func hasHotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		fields := strings.Fields(text)
		if len(fields) > 0 && fields[0] == HotpathDirective {
			return true
		}
	}
	return false
}

// collectCalls walks a function body recording call sites on node. The
// walk descends into deferred and immediately-invoked function literals
// (they run on the same goroutine) but not into go-spawned literal
// bodies.
func collectCalls(pkg *Package, body ast.Node, node *FuncNode) {
	var walk func(n ast.Node, deferred bool)
	walk = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				node.Calls = append(node.Calls, CallSite{
					Pos:    n.Call.Pos(),
					Call:   n.Call,
					Callee: resolveCallee(pkg, n.Call),
					Go:     true,
				})
				// Arguments to the spawned call are evaluated on this
				// goroutine; the spawned body is not.
				for _, arg := range n.Call.Args {
					if _, isLit := arg.(*ast.FuncLit); !isLit {
						walk(arg, deferred)
					}
				}
				if _, isLit := ast.Unparen(n.Call.Fun).(*ast.FuncLit); !isLit {
					walk(n.Call.Fun, deferred)
				}
				return false
			case *ast.DeferStmt:
				node.Calls = append(node.Calls, CallSite{
					Pos:    n.Call.Pos(),
					Call:   n.Call,
					Callee: resolveCallee(pkg, n.Call),
					Defer:  true,
				})
				for _, arg := range n.Call.Args {
					walk(arg, deferred)
				}
				// A deferred func literal's body runs on this goroutine.
				walk(n.Call.Fun, true)
				return false
			case *ast.CallExpr:
				if isConversion(pkg, n) {
					return true
				}
				node.Calls = append(node.Calls, CallSite{
					Pos:    n.Pos(),
					Call:   n,
					Callee: resolveCallee(pkg, n),
					Defer:  deferred,
				})
				return true
			}
			return true
		})
	}
	walk(body, false)
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
