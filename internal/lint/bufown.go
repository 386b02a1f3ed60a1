package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// bufown tracks wire.Buffer reference ownership across function
// boundaries. The protocol (DESIGN.md §11): NewBuffer returns one owned
// reference; handing the buffer to a consuming callee (one that
// releases or enqueues its parameter on every path) spends that
// reference; Retain(n) buys n more. The check classifies every
// buffer-carrying parameter in hub/transport/wire as consuming,
// borrowing, or opaque by a fixpoint over the call graph, then walks
// every function body with a per-path credit counter: a second consume
// at credit zero is a double release, any other use at credit zero is a
// use-after-consume, and an early return between acquiring an owned
// reference and its first hand-off is a leak.
//
// Conservatism: aliases, stores into locals, captures and hand-offs to
// unknown or opaque callees stop tracking (no finding is ever produced
// past a point the analysis cannot follow); branches are explored on a
// copy of the credit state; error-guard returns right after an
// acquisition (`b, err := wire.NewBuffer(m); if err != nil { return }`)
// are exempt from the leak rule because the buffer is nil on that path.

const wirePkgPath = "volcast/internal/wire"

// bufOwnPackages are the packages whose functions are analyzed.
var bufOwnPackages = map[string]bool{
	"volcast/internal/hub":       true,
	"volcast/internal/transport": true,
	wirePkgPath:                  true,
}

var analyzerBufOwn = &Analyzer{
	Name: "bufown",
	Doc: "wire.Buffer ownership must transfer cleanly across function boundaries: " +
		"no double release, no use after consume, no leak on early-return paths",
	Run: runBufOwn,
}

// ownKind classifies what a callee does with a buffer-carrying
// parameter.
type ownKind int

const (
	ownBorrow  ownKind = iota // uses the reference, spends nothing
	ownConsume                // spends exactly one reference on every path
	ownOpaque                 // untrackable: callers stop tracking
)

func runBufOwn(p *Pass) {
	kinds := classifyParams(p)
	for _, node := range p.Graph.Funcs() {
		if !bufOwnPackages[node.Pkg.Path] || skipBufOwnFunc(node) {
			continue
		}
		b := &bufFlow{p: p, pkg: node.Pkg, kinds: kinds}
		f := &flow[*types.Var, bufTrack]{pkg: node.Pkg, enter: b.enter, leave: b.leave,
			call: b.call, send: b.send, assign: b.assign, ret: b.ret, escape: b.escape}
		f.walk(node.Decl.Type, node.Decl.Body)
	}
}

// skipBufOwnFunc excludes wire.Buffer's own method set and constructor:
// they implement the refcount and legitimately touch it in ways the
// ownership model forbids everywhere else.
func skipBufOwnFunc(node *FuncNode) bool {
	if node.Pkg.Path != wirePkgPath {
		return false
	}
	if node.Fn.Name() == "NewBuffer" {
		return true
	}
	return recvName(node.Fn) == "Buffer"
}

// isBufferPtr reports whether t is *wire.Buffer.
func isBufferPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	return isNamedType(ptr.Elem(), wirePkgPath, "Buffer")
}

// isBufferCarrier reports whether a value of type t carries a buffer
// reference: *wire.Buffer itself, or a struct value with a *wire.Buffer
// field (hub's outBuf).
func isBufferCarrier(t types.Type) bool {
	if isBufferPtr(t) {
		return true
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isBufferPtr(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// --- callee-side parameter classification -------------------------------

// classifyParams computes the ownKind of every buffer-carrying parameter
// of every in-scope module function, iterating to a fixpoint because a
// parameter's kind can depend on the kind of the parameter it is passed
// on to.
func classifyParams(p *Pass) map[*types.Var]ownKind {
	kinds := map[*types.Var]ownKind{}
	type candidate struct {
		node  *FuncNode
		param *types.Var
		ident *ast.Ident
	}
	var cands []candidate
	for _, node := range p.Graph.Funcs() {
		if !bufOwnPackages[node.Pkg.Path] || skipBufOwnFunc(node) || node.Decl.Type.Params == nil {
			continue
		}
		for _, field := range node.Decl.Type.Params.List {
			for _, name := range field.Names {
				v, ok := node.Pkg.Info.Defs[name].(*types.Var)
				if !ok || !isBufferCarrier(v.Type()) {
					continue
				}
				kinds[v] = ownBorrow
				cands = append(cands, candidate{node, v, name})
			}
		}
	}
	fnParams := map[*FuncNode]map[*types.Var]bool{}
	for _, c := range cands {
		if fnParams[c.node] != nil {
			continue
		}
		set := map[*types.Var]bool{}
		sig := c.node.Fn.Type().(*types.Signature)
		if sig.Recv() != nil {
			set[sig.Recv()] = true
		}
		for i := 0; i < sig.Params().Len(); i++ {
			set[sig.Params().At(i)] = true
		}
		fnParams[c.node] = set
	}
	for iter := 0; iter < 10; iter++ {
		changed := false
		for _, c := range cands {
			if kinds[c.param] == ownOpaque {
				continue
			}
			cl := &paramClassifier{pkg: c.node.Pkg, param: c.param, kinds: kinds, fnParams: fnParams[c.node]}
			score := cl.stmts(c.node.Decl.Body.List)
			next := kinds[c.param]
			switch {
			case cl.opaque:
				next = ownOpaque
			case score >= 1:
				next = ownConsume
			}
			if next != kinds[c.param] {
				kinds[c.param] = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return kinds
}

// paramClassifier scores one parameter over one body: +1 per reference
// the function spends, -n per Retain(n), branches contribute the
// maximum of their arms (a callee that consumes on any path must be
// treated as consuming by callers).
type paramClassifier struct {
	pkg   *Package
	param *types.Var
	kinds map[*types.Var]ownKind
	// fnParams holds the function's own parameters and receiver: a store
	// into a container rooted at one of them escapes to the caller.
	fnParams map[*types.Var]bool
	opaque   bool
}

func (c *paramClassifier) stmts(list []ast.Stmt) int {
	total := 0
	for _, s := range list {
		total += c.stmt(s)
	}
	return total
}

func (c *paramClassifier) stmt(s ast.Stmt) int {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return c.stmts(s.List)
	case *ast.ExprStmt:
		return c.expr(s.X)
	case *ast.IfStmt:
		d := 0
		if s.Init != nil {
			d += c.stmt(s.Init)
		}
		d += c.expr(s.Cond)
		arms := c.stmt(s.Body)
		alt := 0
		if s.Else != nil {
			alt = c.stmt(s.Else)
		}
		return d + max(arms, alt)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return c.branchMax(s)
	case *ast.ForStmt:
		d := 0
		if s.Init != nil {
			d += c.stmt(s.Init)
		}
		if s.Cond != nil {
			d += c.expr(s.Cond)
		}
		return d + max(c.stmt(s.Body), 0)
	case *ast.RangeStmt:
		return c.expr(s.X) + max(c.stmt(s.Body), 0)
	case *ast.ReturnStmt:
		d := 0
		for _, e := range s.Results {
			if mentionsVar(c.pkg, e, c.param) {
				c.opaque = true // ownership flows back out: untrackable
			}
			d += c.expr(e)
		}
		return d
	case *ast.AssignStmt:
		d := 0
		for _, e := range s.Rhs {
			d += c.expr(e)
		}
		for i, lhs := range s.Lhs {
			if i < len(s.Rhs) && mentionsVar(c.pkg, s.Rhs[i], c.param) {
				if isBufferCarrier(typeOf(c.pkg, s.Rhs[i])) {
					d += c.storeDelta(lhs)
				}
			}
			d += c.expr(lhs)
		}
		return d
	case *ast.SendStmt:
		d := c.expr(s.Chan)
		if mentionsVar(c.pkg, s.Value, c.param) {
			d++
		} else {
			d += c.expr(s.Value)
		}
		return d
	case *ast.DeferStmt:
		return c.expr(s.Call)
	case *ast.GoStmt:
		if mentionsVar(c.pkg, s.Call, c.param) {
			c.opaque = true
		}
		return 0
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt)
	case *ast.DeclStmt:
		return c.expr(s.Decl)
	case *ast.IncDecStmt:
		return c.expr(s.X)
	}
	return 0
}

// branchMax handles switch/select: sequential prelude plus the maximum
// arm.
func (c *paramClassifier) branchMax(s ast.Stmt) int {
	d, best := 0, 0
	arm := func(list []ast.Stmt, comm ast.Stmt) {
		v := 0
		if comm != nil {
			v += c.stmt(comm)
		}
		v += c.stmts(list)
		if v > best {
			best = v
		}
	}
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			d += c.stmt(s.Init)
		}
		if s.Tag != nil {
			d += c.expr(s.Tag)
		}
		for _, cl := range s.Body.List {
			arm(cl.(*ast.CaseClause).Body, nil)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			d += c.stmt(s.Init)
		}
		for _, cl := range s.Body.List {
			arm(cl.(*ast.CaseClause).Body, nil)
		}
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			arm(cc.Body, cc.Comm)
		}
	}
	return d + best
}

// expr scores calls inside one expression tree.
func (c *paramClassifier) expr(n ast.Node) int {
	if n == nil {
		return 0
	}
	d := 0
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if mentionsVar(c.pkg, n, c.param) {
				c.opaque = true // captured by a closure: untrackable
			}
			return false
		case *ast.CallExpr:
			d += c.callDelta(n)
		}
		return true
	})
	return d
}

// callDelta scores one call: Release/Retain on the parameter (or its
// buffer field), or passing the parameter to another classified
// parameter.
func (c *paramClassifier) callDelta(call *ast.CallExpr) int {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && c.rootedAtParam(sel.X) {
		if recv, name, typ, ok := methodCall(c.pkg, call); ok && isNamedType(typ, wirePkgPath, "Buffer") {
			_ = recv
			switch name {
			case "Release":
				return 1
			case "Retain":
				return -retainCount(call)
			}
			return 0
		}
	}
	// Passing the parameter (possibly wrapped in a carrier literal) on.
	delta := 0
	params := calleeParams(c.pkg, call)
	for i, arg := range call.Args {
		if !(argIsVar(c.pkg, arg, c.param) || wrapsVar(c.pkg, arg, c.param)) {
			continue
		}
		if params == nil || i >= len(params) {
			c.opaque = true
			continue
		}
		switch c.kinds[params[i]] {
		case ownConsume:
			delta++
		case ownBorrow:
			// spends nothing
		default:
			c.opaque = true
		}
	}
	return delta
}

// storeDelta scores an assignment of the parameter into lhs: a store
// that escapes to the caller (rooted at a parameter/receiver or a
// package-level variable) consumes a reference; a store into a plain
// local is untrackable.
func (c *paramClassifier) storeDelta(lhs ast.Expr) int {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		c.opaque = true // alias
	case *ast.IndexExpr, *ast.SelectorExpr:
		root, ok := rootVar(c.pkg, l)
		if ok && (c.fnParams[root] || !isLocalVar(root)) {
			return 1
		}
		c.opaque = true
	default:
		c.opaque = true
	}
	return 0
}

func (c *paramClassifier) rootedAtParam(e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return c.pkg.Info.Uses[x] == c.param
		case *ast.SelectorExpr:
			e = x.X
		default:
			return false
		}
	}
}

// --- caller-side credit tracking ----------------------------------------

// bufEventKind is one ownership-relevant event on a tracked variable,
// in source order, used by the leak scan.
type bufEventKind int

const (
	evAcquire bufEventKind = iota
	evConsume              // a reference was spent here
	evStop                 // tracking ends here (alias, escape, unknown callee)
)

type bufEvent struct {
	v    *types.Var
	kind bufEventKind
	pos  token.Pos
}

// bufTrack is one tracked variable's per-path state. A variable whose
// tracking stopped leaves the state.
type bufTrack struct {
	name   string
	credit int
}

// bufFlow is bufown's side of the statement walk (flow.go): a credit per
// tracked buffer on each path, and the source-order ownership events of
// the body being walked, which drive its leak scan.
type bufFlow struct {
	p      *Pass
	pkg    *Package
	kinds  map[*types.Var]ownKind
	events []bufEvent
}

// enter starts a body: its buffer-carrying parameters hold one credit
// each; locals acquired from buffer-returning calls are tracked from
// their acquisition.
func (b *bufFlow) enter(ftype *ast.FuncType) map[*types.Var]bufTrack {
	b.events = nil
	st := map[*types.Var]bufTrack{}
	for _, field := range ftype.Params.List {
		for _, name := range field.Names {
			if v, ok := b.pkg.Info.Defs[name].(*types.Var); ok && isBufferCarrier(v.Type()) {
				st[v] = bufTrack{name: name.Name, credit: 1}
			}
		}
	}
	return st
}

// leave runs the early-return leak scan over the body's event trail.
func (b *bufFlow) leave(body *ast.BlockStmt) {
	reportLeaks(b.p, b.pkg, body, b.events)
}

func (b *bufFlow) send(st map[*types.Var]bufTrack, s *ast.SendStmt, _ sendKind) {
	if v, ok := b.trackedIn(st, s.Value); ok {
		b.consume(st, v, s.Arrow, "sent on a channel")
	}
}

// assign handles acquisitions, aliases, overwrites and stores.
func (b *bufFlow) assign(st map[*types.Var]bufTrack, s *ast.AssignStmt) {
	// Acquisition: `b := f()` or `b, err := f()` where f returns an
	// owned *wire.Buffer (module convention: every returned buffer is
	// owned by the caller).
	if len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok && !isConversion(b.pkg, call) && returnsBuffer(b.pkg, call) {
			if id, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident); ok && id.Name != "_" {
				if v := objOf(b.pkg, id); v != nil {
					b.stop(st, v, s.Pos()) // overwrite: the old reference is gone
					st[v] = bufTrack{name: id.Name, credit: 1}
					b.events = append(b.events, bufEvent{v, evAcquire, call.Pos()})
				}
			}
			return
		}
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		rhsVar, rhsTracked := b.trackedIn(st, s.Rhs[i])
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if v := objOf(b.pkg, l); v != nil {
				b.stop(st, v, s.Pos()) // overwritten
			}
			if rhsTracked {
				b.stop(st, rhsVar, s.Pos()) // aliased
			}
		case *ast.IndexExpr, *ast.SelectorExpr:
			if !rhsTracked {
				continue
			}
			if root, ok := rootVar(b.pkg, l); ok && isLocalVar(root) {
				b.stop(st, rhsVar, s.Pos()) // stored into a local container
			} else {
				b.consume(st, rhsVar, s.Pos(), "stored into a shared structure")
			}
		default:
			if rhsTracked {
				b.stop(st, rhsVar, s.Pos())
			}
		}
	}
}

// call applies one call's effect on every tracked variable it touches.
func (b *bufFlow) call(st map[*types.Var]bufTrack, call *ast.CallExpr) {
	pos := call.Pos()
	// Method on (a field of) a tracked variable.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if root, ok := rootVar(b.pkg, sel.X); ok {
			if t, tracked := st[root]; tracked {
				if _, name, typ, ok := methodCall(b.pkg, call); ok && isNamedType(typ, wirePkgPath, "Buffer") {
					switch name {
					case "Release":
						b.consume(st, root, pos, "released")
					case "Retain":
						t.credit += retainCount(call)
						st[root] = t
					default:
						b.use(st, root, pos)
					}
					return
				}
				b.use(st, root, pos)
				return
			}
		}
	}
	// Tracked variables passed as arguments.
	params := calleeParams(b.pkg, call)
	for i, arg := range call.Args {
		v, tracked := b.trackedIn(st, arg)
		if !tracked {
			continue
		}
		if params == nil || i >= len(params) {
			b.stop(st, v, arg.Pos()) // unknown or external callee
			continue
		}
		switch b.kinds[params[i]] {
		case ownConsume:
			b.consume(st, v, arg.Pos(), "handed to a consuming callee")
		case ownBorrow:
			b.use(st, v, arg.Pos())
		default:
			b.stop(st, v, arg.Pos())
		}
	}
}

// trackedIn reports the live tracked variable that e is (or wraps in a
// carrier literal).
func (b *bufFlow) trackedIn(st map[*types.Var]bufTrack, e ast.Expr) (*types.Var, bool) {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if v, isVar := b.pkg.Info.Uses[id].(*types.Var); isVar {
			if _, tracked := st[v]; tracked {
				return v, true
			}
		}
		return nil, false
	}
	if lit, ok := ast.Unparen(e).(*ast.CompositeLit); ok && isBufferCarrier(typeOf(b.pkg, lit)) {
		for _, el := range lit.Elts {
			x := el
			if kv, isKV := el.(*ast.KeyValueExpr); isKV {
				x = kv.Value
			}
			if v, tracked := b.trackedIn(st, x); tracked {
				return v, true
			}
		}
	}
	return nil, false
}

func (b *bufFlow) consume(st map[*types.Var]bufTrack, v *types.Var, pos token.Pos, what string) {
	t, tracked := st[v]
	if !tracked {
		return
	}
	b.events = append(b.events, bufEvent{v, evConsume, pos})
	if t.credit <= 0 {
		b.p.Reportf(pos, "Retain the buffer before sharing it, or drop the extra release",
			"wire.Buffer %q %s after its reference was already consumed (double release)", t.name, what)
		return
	}
	t.credit--
	st[v] = t
}

func (b *bufFlow) use(st map[*types.Var]bufTrack, v *types.Var, pos token.Pos) {
	if t, tracked := st[v]; tracked && t.credit <= 0 {
		b.p.Reportf(pos, "use the buffer before handing its reference off, or Retain an extra reference",
			"wire.Buffer %q used after its reference was consumed", t.name)
	}
}

func (b *bufFlow) stop(st map[*types.Var]bufTrack, v *types.Var, pos token.Pos) {
	if _, tracked := st[v]; tracked {
		delete(st, v)
		b.events = append(b.events, bufEvent{v, evStop, pos})
	}
}

// ret stops tracking whatever the results mention: its ownership leaves
// this function (returned outright or handed to the call computing the
// result), so tracking stops rather than guess.
func (b *bufFlow) ret(st map[*types.Var]bufTrack, s *ast.ReturnStmt) {
	b.escape(st, s)
}

// escape stops every tracked variable n references: anything captured
// by a literal or handed to another goroutine is out of reach.
func (b *bufFlow) escape(st map[*types.Var]bufTrack, n ast.Node) {
	for v := range st {
		if mentionsVar(b.pkg, n, v) {
			b.stop(st, v, n.Pos())
		}
	}
}

// mentionsVar reports whether the subtree references v.
func mentionsVar(pkg *Package, n ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == v {
			found = true
		}
		return !found
	})
	return found
}

// objOf resolves an identifier to its variable (definition or use).
func objOf(pkg *Package, id *ast.Ident) *types.Var {
	if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// returnsBuffer reports whether the call yields an owned *wire.Buffer
// (single value or first element of a tuple).
func returnsBuffer(pkg *Package, call *ast.CallExpr) bool {
	t := typeOf(pkg, call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(0).Type()
	}
	return isBufferPtr(t)
}

// --- early-return leak scan ---------------------------------------------

// retInfo is one return statement with its guard context.
type retInfo struct {
	pos token.Pos
	// mentions is the set of tracked-relevant variables the return's
	// subtree references.
	stmt *ast.ReturnStmt
	// guards holds every variable mentioned in the conditions of the
	// if-statements enclosing the return: `if err != nil { return err }`
	// guards the return with err.
	guards map[*types.Var]bool
}

// reportLeaks flags returns that exit between acquiring an owned buffer
// and its first consume/stop, unless guarded by the acquisition's error
// variable or a nil-check of the buffer itself, or mentioning the buffer
// (which transfers it out).
func reportLeaks(p *Pass, pkg *Package, body *ast.BlockStmt, events []bufEvent) {
	if len(events) == 0 {
		return
	}
	returns := collectReturns(pkg, body)
	errVars := acquisitionErrVars(pkg, body)

	for i, ev := range events {
		if ev.kind != evAcquire {
			continue
		}
		// First consume/stop for this variable after the acquisition.
		release := token.NoPos
		for _, later := range events[i+1:] {
			if later.v != ev.v {
				continue
			}
			if later.kind == evConsume || later.kind == evStop {
				release = later.pos
			}
			break // next event for v decides either way
		}
		errVar := errVars[ev.pos]
		if release == token.NoPos {
			exempt := false
			for _, r := range returns {
				if r.pos > ev.pos && (mentionsVar(pkg, r.stmt, ev.v) || r.guards[ev.v]) {
					exempt = true
					break
				}
			}
			if !exempt {
				p.Reportf(ev.pos, "Release the buffer or hand its reference off before the function ends",
					"owned wire.Buffer acquired here is never released or handed off")
			}
			continue
		}
		for _, r := range returns {
			if r.pos <= ev.pos || r.pos >= release {
				continue
			}
			if mentionsVar(pkg, r.stmt, ev.v) || r.guards[ev.v] || (errVar != nil && r.guards[errVar]) {
				continue
			}
			p.Reportf(r.pos, "Release the buffer on this path before returning",
				"early return leaks the owned wire.Buffer acquired at line %d",
				pkg.Fset.Position(ev.pos).Line)
		}
	}
}

// collectReturns gathers the function's own return statements (not those
// of nested literals) with the guard variables of their enclosing ifs.
func collectReturns(pkg *Package, body *ast.BlockStmt) []retInfo {
	var out []retInfo
	var walk func(n ast.Node, guards map[*types.Var]bool)
	walk = func(n ast.Node, guards map[*types.Var]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // a literal's returns do not exit this function
			case *ast.IfStmt:
				inner := make(map[*types.Var]bool, len(guards))
				for k := range guards {
					inner[k] = true
				}
				ast.Inspect(n.Cond, func(c ast.Node) bool {
					if id, ok := c.(*ast.Ident); ok {
						if v, isVar := pkg.Info.Uses[id].(*types.Var); isVar {
							inner[v] = true
						}
					}
					return true
				})
				if n.Init != nil {
					walk(n.Init, guards)
				}
				walk(n.Body, inner)
				if n.Else != nil {
					walk(n.Else, inner)
				}
				return false
			case *ast.ReturnStmt:
				out = append(out, retInfo{pos: n.Pos(), stmt: n, guards: guards})
				return true
			}
			return true
		})
	}
	walk(body, map[*types.Var]bool{})
	return out
}

// acquisitionErrVars maps an acquisition call position to the error
// variable assigned alongside it (`b, err := wire.NewBuffer(m)` → err).
func acquisitionErrVars(pkg *Package, body *ast.BlockStmt) map[token.Pos]*types.Var {
	out := map[token.Pos]*types.Var{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		s, ok := n.(*ast.AssignStmt)
		if !ok || len(s.Rhs) != 1 || len(s.Lhs) != 2 {
			return true
		}
		call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
		if !ok || !returnsBuffer(pkg, call) {
			return true
		}
		if id, ok := ast.Unparen(s.Lhs[1]).(*ast.Ident); ok {
			if v := objOf(pkg, id); v != nil {
				out[call.Pos()] = v
			}
		}
		return true
	})
	return out
}

// --- shared helpers ------------------------------------------------------

func typeOf(pkg *Package, e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// retainCount reads the constant argument of Retain(n), defaulting to 1.
func retainCount(call *ast.CallExpr) int {
	if len(call.Args) != 1 {
		return 1
	}
	if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok && lit.Kind == token.INT {
		if n, err := strconv.Atoi(lit.Value); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

// calleeParams returns the declared parameter objects of a resolved
// module call, or nil when the callee is unknown or external.
func calleeParams(pkg *Package, call *ast.CallExpr) []*types.Var {
	fn := resolveCallee(pkg, call)
	if fn == nil || fn.Pkg() == nil || !bufOwnPackages[fn.Pkg().Path()] {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	out := make([]*types.Var, sig.Params().Len())
	for i := 0; i < sig.Params().Len(); i++ {
		out[i] = sig.Params().At(i)
	}
	return out
}

// argIsVar reports whether arg is exactly the given variable.
func argIsVar(pkg *Package, arg ast.Expr, v *types.Var) bool {
	id, ok := ast.Unparen(arg).(*ast.Ident)
	return ok && pkg.Info.Uses[id] == v
}

// wrapsVar reports whether arg is a carrier composite literal with v as
// a field value (outBuf{buf: v}).
func wrapsVar(pkg *Package, arg ast.Expr, v *types.Var) bool {
	lit, ok := ast.Unparen(arg).(*ast.CompositeLit)
	if !ok || !isBufferCarrier(typeOf(pkg, lit)) {
		return false
	}
	for _, el := range lit.Elts {
		e := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			e = kv.Value
		}
		if argIsVar(pkg, e, v) {
			return true
		}
	}
	return false
}

// rootVar returns the variable at the leftmost identifier of a
// selector/index chain.
func rootVar(pkg *Package, e ast.Expr) (*types.Var, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, ok := pkg.Info.Uses[x].(*types.Var)
			return v, ok
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// isLocalVar reports whether v is function-scoped (a local, parameter,
// or closure capture) rather than a package-level variable or field.
func isLocalVar(v *types.Var) bool {
	return !v.IsField() && v.Pkg() != nil && v.Parent() != nil && v.Parent() != v.Pkg().Scope()
}
