package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockorder derives the module's mutex-acquisition graph and fails on
// (a) any cycle — two lock classes each acquired while the other is held
// somewhere in the module is a potential deadlock the race detector only
// catches when the interleaving actually happens — and (b) any edge that
// contradicts the declared hub→session→subscriber hierarchy.
//
// A lock class is a project mutex identified by where it lives, not by
// instance: a field class "pkg.Type.field" (hub.session.mu) or a
// package-level class "pkg.var" (blockcache.gMu). Only mutexes declared
// in lockOrderPackages participate; module-wide utility locks (metrics
// registries, tracers) are single-acquire by construction and would only
// add noise.
//
// Acquisition edges come from two sources, both computed on the
// statement-order walk of every function body (flow.go, whose rules
// for branches, deferred unlocks and literals the held set follows): a
// direct Lock with other classes held, and a call into a module
// function whose transitive summary (propagate over the call graph)
// says it acquires classes of its own. go-spawned literals contribute
// nothing to the spawner's summary.

// lockOrderPackages are the packages whose mutexes form lock classes.
var lockOrderPackages = map[string]bool{
	"volcast/internal/hub":        true,
	"volcast/internal/transport":  true,
	"volcast/internal/blockcache": true,
}

// LockHierarchy is the declared acquisition order of the fan-out plane:
// a lock may only be taken while holding locks of strictly lower rank.
// The table is itself checked — every class must still exist when its
// package is loaded, so renaming a field without updating the hierarchy
// is a finding, not silent rot.
var LockHierarchy = []struct {
	Class string
	Rank  int
}{
	{"volcast/internal/hub.Hub.mu", 0},
	{"volcast/internal/hub.session.mu", 1},
	{"volcast/internal/hub.subscriber.mu", 2},
}

var analyzerLockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "mutex acquisition across hub/transport/blockcache must stay acyclic and " +
		"follow the declared hub→session→subscriber hierarchy",
	Run: runLockOrder,
}

// lockEdge is one observed ordering: to was acquired (directly or via a
// call) while from was held.
type lockEdge struct{ from, to string }

func runLockOrder(p *Pass) {
	checkHierarchyTable(p)

	// Pass 1: direct acquisitions per function (go-literal bodies
	// excluded — they acquire on their own goroutine), then the
	// transitive closure over the call graph.
	direct := map[*types.Func]facts{}
	for _, node := range p.Graph.Funcs() {
		f := facts{}
		collectAcquires(node.Pkg, node.Decl.Body, f)
		if len(f) > 0 {
			direct[node.Fn] = f
		}
	}
	acquires := propagate(p.Graph, direct, nil)

	// Pass 2: statement-order walk computing held sets and edges.
	edges := map[lockEdge]token.Pos{}
	addEdges := func(held map[string]token.Pos, to string, pos token.Pos) {
		for from := range held {
			if e := (lockEdge{from, to}); edges[e] == token.NoPos {
				edges[e] = pos
			}
		}
	}
	for _, node := range p.Graph.Funcs() {
		pkg := node.Pkg
		f := &flow[string, token.Pos]{
			pkg: pkg,
			call: func(held map[string]token.Pos, call *ast.CallExpr) {
				if class, op := mutexOp(pkg, call); class != "" {
					switch op {
					case "Lock", "RLock":
						addEdges(held, class, call.Pos())
						held[class] = call.Pos()
					case "Unlock", "RUnlock":
						delete(held, class)
					}
					return
				}
				if callee := resolveCallee(pkg, call); callee != nil {
					for class := range acquires[callee] {
						addEdges(held, class, call.Pos())
					}
				}
			},
		}
		f.walk(node.Decl.Body)
	}

	reportCycles(p, edges)
	reportHierarchyViolations(p, edges)
}

// checkHierarchyTable verifies every declared class still names a real
// mutex when its package is loaded.
func checkHierarchyTable(p *Pass) {
	byPath := map[string]*Package{}
	for _, pkg := range p.Pkgs {
		byPath[pkg.Path] = pkg
	}
	for _, h := range LockHierarchy {
		dot := strings.LastIndex(h.Class, ".")
		qual := h.Class[:dot]    // pkgpath.Type or pkgpath
		field := h.Class[dot+1:] // mu
		slash := strings.LastIndex(qual, "/")
		typeDot := strings.Index(qual[slash+1:], ".")
		if typeDot < 0 {
			continue // package-level class; nothing to verify structurally
		}
		pkgPath := qual[:slash+1+typeDot]
		typeName := qual[slash+1+typeDot+1:]
		pkg, loaded := byPath[pkgPath]
		if !loaded {
			continue
		}
		obj := pkg.Types.Scope().Lookup(typeName)
		ok := false
		if tn, isType := obj.(*types.TypeName); isType {
			if st, isStruct := tn.Type().Underlying().(*types.Struct); isStruct {
				for i := 0; i < st.NumFields(); i++ {
					if st.Field(i).Name() == field && isMutex(st.Field(i).Type()) {
						ok = true
					}
				}
			}
		}
		if !ok {
			p.Reportf(pkg.Files[0].Package,
				"update LockHierarchy in internal/lint/lockorder.go to match the code",
				"declared lock hierarchy entry %s names no mutex field in %s", h.Class, pkgPath)
		}
	}
}

// collectAcquires records every lock class Locked/RLocked in the body,
// skipping go-spawned literal bodies.
func collectAcquires(pkg *Package, body ast.Node, out facts) {
	ast.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if _, isLit := ast.Unparen(g.Call.Fun).(*ast.FuncLit); isLit {
				return false
			}
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if class, op := mutexOp(pkg, call); op == "Lock" || op == "RLock" {
			if _, have := out[class]; !have && class != "" {
				out[class] = witness{Pos: call.Pos()}
			}
		}
		return true
	})
}

// mutexOp recognizes a project-mutex method call, returning its lock
// class and the method name ("" class when the receiver is not a
// classifiable project mutex).
func mutexOp(pkg *Package, call *ast.CallExpr) (class, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	selection, ok := pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return "", ""
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	return mutexClass(pkg, sel.X), name
}

// mutexClass names the lock class of a mutex-valued expression:
// "pkgpath.Type.field" for a struct field, "pkgpath.var" for a
// package-level mutex, "" for anything unclassifiable (locals,
// out-of-scope packages).
func mutexClass(pkg *Package, recv ast.Expr) string {
	switch r := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		// Qualified package-level var: pkg.gMu.
		if id, ok := ast.Unparen(r.X).(*ast.Ident); ok {
			if pn, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
				path := pn.Imported().Path()
				if lockOrderPackages[path] {
					return path + "." + r.Sel.Name
				}
				return ""
			}
		}
		// Field access: base.mu — class from the base's named type.
		tv, ok := pkg.Info.Types[r.X]
		if !ok || tv.Type == nil {
			return ""
		}
		t := tv.Type
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		named, isNamed := t.(*types.Named)
		if !isNamed || named.Obj().Pkg() == nil {
			return ""
		}
		path := named.Obj().Pkg().Path()
		if !lockOrderPackages[path] {
			return ""
		}
		return path + "." + named.Obj().Name() + "." + r.Sel.Name
	case *ast.Ident:
		// Unqualified package-level var within its own package.
		v, ok := pkg.Info.Uses[r].(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
			return ""
		}
		if !lockOrderPackages[v.Pkg().Path()] {
			return ""
		}
		return v.Pkg().Path() + "." + r.Name
	}
	return ""
}

// reportCycles finds strongly connected components (and self-loops) in
// the acquisition graph and reports each once.
func reportCycles(p *Pass, edges map[lockEdge]token.Pos) {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		nodes[e.from], nodes[e.to] = true, true
	}
	for n := range adj {
		sort.Strings(adj[n])
	}

	// Tarjan SCC, iterative enough for our graph sizes via recursion.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var sccs [][]string
	var strong func(v string)
	strong = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, wnode := range adj[v] {
			if _, seen := index[wnode]; !seen {
				strong(wnode)
				if low[wnode] < low[v] {
					low[v] = low[wnode]
				}
			} else if onStack[wnode] && index[wnode] < low[v] {
				low[v] = index[wnode]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				wnode := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[wnode] = false
				comp = append(comp, wnode)
				if wnode == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	var ordered []string
	for n := range nodes {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	for _, n := range ordered {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}

	for _, comp := range sccs {
		if len(comp) == 1 {
			self := lockEdge{comp[0], comp[0]}
			if pos, ok := edges[self]; ok {
				p.Reportf(pos, "release the lock before re-acquiring, or split the critical section",
					"lock %s acquired while already held (self-deadlock)", comp[0])
			}
			continue
		}
		sort.Strings(comp)
		// Anchor the finding at the lexically smallest edge inside the
		// component.
		var pos token.Pos
		for e, ep := range edges {
			if inSCC(comp, e.from) && inSCC(comp, e.to) {
				if pos == token.NoPos || ep < pos {
					pos = ep
				}
			}
		}
		p.Reportf(pos, "pick one acquisition order for these locks and use it everywhere",
			"lock-order cycle (potential deadlock) among: %s", strings.Join(comp, ", "))
	}
}

func inSCC(comp []string, n string) bool {
	for _, c := range comp {
		if c == n {
			return true
		}
	}
	return false
}

// reportHierarchyViolations flags edges that contradict the declared
// ranks.
func reportHierarchyViolations(p *Pass, edges map[lockEdge]token.Pos) {
	rank := map[string]int{}
	for _, h := range LockHierarchy {
		rank[h.Class] = h.Rank
	}
	type viol struct {
		e   lockEdge
		pos token.Pos
	}
	var viols []viol
	for e, pos := range edges {
		rf, okF := rank[e.from]
		rt, okT := rank[e.to]
		if !okF || !okT || e.from == e.to {
			continue // self-loops are reported as cycles
		}
		if rf >= rt {
			viols = append(viols, viol{e, pos})
		}
	}
	sort.Slice(viols, func(i, j int) bool { return viols[i].pos < viols[j].pos })
	for _, v := range viols {
		p.Reportf(v.pos, "acquire in declared order or restructure to drop the outer lock first",
			"%s acquired while holding %s, against the declared lock hierarchy",
			v.e.to, v.e.from)
	}
}
