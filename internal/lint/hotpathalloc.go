package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// hotpathalloc keeps the frame path's 0 allocs/op guarantee a lint
// failure instead of a bench-only catch. A function annotated
// //vollint:hotpath must not reach an allocation source — in its own
// body or through any synchronously-called module function — unless the
// allocation is pool-mediated.
//
// Direct allocation sources: non-constant string concatenation, map and
// slice composite literals, &composite{} (escaping address-of), make,
// new, append growing from nothing (nil/literal/uncapped make base),
// string<->[]byte conversions, interface boxing of non-pointer concrete
// values (panic excepted), closures capturing variables, and go
// statements. A function that touches a sync.Pool (Get/Put) is
// pool-mediated: its sources are the pool refilling itself, so it
// contributes nothing to callers. Unknown and external callees also
// contribute nothing — the check is a gate on the module's own code,
// not an escape analysis of the standard library.

var analyzerHotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "//vollint:hotpath functions must not reach an allocation source (directly " +
		"or via module callees) outside a sync.Pool",
	Run: runHotPathAlloc,
}

// allocSource is one direct allocation with its description.
type allocSource struct {
	pos  token.Pos
	desc string
}

func runHotPathAlloc(p *Pass) {
	// Direct sources per function (pool-mediated functions contribute
	// nothing), then the transitive closure over the call graph: a
	// function allocates if it has a direct source or synchronously
	// calls a module function that does.
	direct := map[*types.Func][]allocSource{}
	seeds := map[*types.Func]facts{}
	first := map[*types.Func]string{}
	for _, node := range p.Graph.Funcs() {
		if usesSyncPool(node.Pkg, node.Decl.Body) {
			continue
		}
		srcs := directAllocs(node.Pkg, node.Decl.Body)
		direct[node.Fn] = srcs
		if len(srcs) > 0 {
			seeds[node.Fn] = facts{"alloc": {Pos: srcs[0].pos}}
			first[node.Fn] = srcs[0].desc
		}
	}
	allocates := propagate(p.Graph, seeds, func(fn *types.Func) bool {
		_, tracked := direct[fn]
		return !tracked // pool-mediated: never becomes a witness
	})
	// chain names why fn allocates: the callees down to the first direct
	// source, at most five deep.
	chain := func(fn *types.Func) string {
		var hops []string
		for via := allocates[fn]["alloc"].Via; via != nil; via = allocates[fn]["alloc"].Via {
			if len(hops) == 5 {
				return strings.Join(hops, " → ") + " → …"
			}
			fn = via
			hops = append(hops, fn.Name())
		}
		return strings.Join(append(hops, first[fn]), " → ")
	}

	// Report on annotated functions: every direct source, and every call
	// site that reaches an allocating module callee.
	for _, node := range p.Graph.Funcs() {
		if !node.Hotpath {
			continue
		}
		srcs, tracked := direct[node.Fn]
		if !tracked {
			continue // annotated pool helper: exempt by design
		}
		sort.Slice(srcs, func(i, j int) bool { return srcs[i].pos < srcs[j].pos })
		for _, s := range srcs {
			p.Reportf(s.pos, "preallocate, pool, or hoist this off the hot path",
				"hot path allocates: %s", s.desc)
		}
		seen := map[token.Pos]bool{}
		for _, call := range node.Calls {
			if call.Go || call.Callee == nil || seen[call.Pos] {
				continue
			}
			if _, ok := allocates[call.Callee]["alloc"]; !ok {
				continue
			}
			seen[call.Pos] = true
			p.Reportf(call.Pos, "pool the allocation inside the callee or hoist the call off the hot path",
				"hot path calls %s, which allocates (%s)", call.Callee.Name(), chain(call.Callee))
		}
	}
}

// usesSyncPool reports whether the body calls sync.Pool Get or Put.
func usesSyncPool(pkg *Package, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if _, name, typ, ok := methodCall(pkg, call); ok && isNamedType(typ, "sync", "Pool") &&
			(name == "Get" || name == "Put") {
			found = true
		}
		return !found
	})
	return found
}

// directAllocs scans one body for allocation sources, skipping
// go-spawned literal bodies (the go statement itself is the source
// there).
func directAllocs(pkg *Package, body ast.Node) []allocSource {
	var out []allocSource
	add := func(pos token.Pos, format string, args ...any) {
		out = append(out, allocSource{pos, fmt.Sprintf(format, args...)})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			add(n.Pos(), "go statement spawns a goroutine")
			return false
		case *ast.FuncLit:
			if capturesOuterVars(pkg, n) {
				add(n.Pos(), "closure captures enclosing variables")
			}
			return false // inner body judged where (if ever) it runs
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(pkg, n) && !isConstExpr(pkg, n) {
				add(n.Pos(), "string concatenation builds a new string")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
					add(n.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			t := typeOf(pkg, n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				add(n.Pos(), "map literal")
			case *types.Slice:
				add(n.Pos(), "slice literal")
			}
		case *ast.CallExpr:
			classifyAllocCall(pkg, n, add)
		}
		return true
	})
	return out
}

// classifyAllocCall flags allocating calls: make/new, growing appends,
// string<->[]byte conversions, and interface boxing at call boundaries.
func classifyAllocCall(pkg *Package, call *ast.CallExpr, add func(token.Pos, string, ...any)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make":
				add(call.Pos(), "make allocates")
			case "new":
				add(call.Pos(), "new allocates")
			case "append":
				if len(call.Args) > 0 && appendBaseAllocates(pkg, call.Args[0]) {
					add(call.Pos(), "append grows from an empty base (no preallocation)")
				}
			}
			return
		}
	}
	if isConversion(pkg, call) {
		if len(call.Args) == 1 {
			to, from := typeOf(pkg, call.Fun), typeOf(pkg, call.Args[0])
			if isStringByteConv(to, from) {
				add(call.Pos(), "string<->[]byte conversion copies")
			}
		}
		return
	}
	// Interface boxing: a concrete non-pointer value passed to an
	// interface parameter allocates. panic is exempt (not a hot path
	// once it fires).
	fn := resolveCallee(pkg, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramTypeAt(sig, i)
		if pt == nil {
			break
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := typeOf(pkg, arg)
		if at == nil || boxingFree(at) {
			continue
		}
		add(arg.Pos(), "interface boxing of %s when calling %s", types.TypeString(at, nil), fn.Name())
	}
}

// paramTypeAt resolves the i'th argument's parameter type, spreading the
// variadic tail.
func paramTypeAt(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		if sl, ok := sig.Params().At(n - 1).Type().(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

// boxingFree reports whether storing a value of type t in an interface
// needs no allocation: pointers, interfaces, channels, maps, funcs and
// unsafe pointers fit the data word directly.
func boxingFree(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		if b.Kind() == types.UntypedNil || b.Kind() == types.UnsafePointer {
			return true
		}
	}
	return false
}

// appendBaseAllocates reports whether the append base starts empty: nil,
// a fresh literal, or a make with no capacity.
func appendBaseAllocates(pkg *Package, base ast.Expr) bool {
	switch b := ast.Unparen(base).(type) {
	case *ast.Ident:
		return b.Name == "nil"
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(b.Fun).(*ast.Ident); ok {
			if built, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin && built.Name() == "make" {
				return len(b.Args) < 3 // make([]T, n) without explicit cap
			}
		}
	}
	return false
}

// capturesOuterVars reports whether the literal references variables
// declared outside itself (a capturing closure allocates its
// environment).
func capturesOuterVars(pkg *Package, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return !captured
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil || v.Parent() == nil || v.Parent() == v.Pkg().Scope() {
			return !captured
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = true
		}
		return !captured
	})
	return captured
}

// isStringExpr reports whether e has string type.
func isStringExpr(pkg *Package, e ast.Expr) bool {
	t := typeOf(pkg, e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConstExpr reports whether e folded to a constant.
func isConstExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.Value != nil
}

// isStringByteConv reports a string <-> []byte (or []rune) conversion.
func isStringByteConv(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	toStr := isStringType(to)
	fromStr := isStringType(from)
	toSlice := isByteOrRuneSlice(to)
	fromSlice := isByteOrRuneSlice(from)
	return (toStr && fromSlice) || (toSlice && fromStr)
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}
