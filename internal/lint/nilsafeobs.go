package lint

import (
	"go/ast"
	"go/types"
)

var analyzerNilSafeObs = &Analyzer{
	Name: "nilsafeobs",
	Doc: "exported pointer-receiver methods on the obs observability types and the metrics " +
		"types must tolerate a nil receiver — a nil tracer/registry/engine is how " +
		"instrumentation is disabled",
	Run: runNilSafeObs,
}

// nilSafeTargets maps package path -> the exported receiver types whose
// methods must be nil-safe; an empty set means every exported type.
var nilSafeTargets = map[string]map[string]bool{
	"volcast/internal/obs": {
		"Tracer":         true,
		"SLOEngine":      true,
		"EventLog":       true,
		"FlightRecorder": true,
	},
	"volcast/internal/metrics": {}, // all exported types (incl. Windowed, WindowedCounter)
}

func runNilSafeObs(p *Pass) {
	for _, pkg := range p.Pkgs {
		if targets, ok := nilSafeTargets[pkg.Path]; ok {
			checkNilSafe(p, pkg, targets)
		}
	}
}

func checkNilSafe(p *Pass, pkg *Package, targets map[string]bool) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() || fd.Body == nil {
				continue
			}
			recvIdent, typeName, isPtr := recvInfo(fd)
			if !isPtr || !ast.IsExported(typeName) {
				continue
			}
			if len(targets) > 0 && !targets[typeName] {
				continue
			}
			if nilGuarded(pkg, fd, recvIdent) {
				continue
			}
			recvName := "recv"
			if recvIdent != nil {
				recvName = recvIdent.Name
			}
			p.Reportf(fd.Name.Pos(),
				"begin the method with `if "+recvName+" == nil { return ... }`",
				"exported method (*%s).%s can panic on a nil receiver", typeName, fd.Name.Name)
		}
	}
}

// recvInfo extracts the receiver identifier, the receiver type name, and
// whether the receiver is a pointer.
func recvInfo(fd *ast.FuncDecl) (*ast.Ident, string, bool) {
	field := fd.Recv.List[0]
	var ident *ast.Ident
	if len(field.Names) > 0 {
		ident = field.Names[0]
	}
	star, ok := field.Type.(*ast.StarExpr)
	if !ok {
		return ident, "", false
	}
	switch t := ast.Unparen(star.X).(type) {
	case *ast.Ident:
		return ident, t.Name, true
	case *ast.IndexExpr: // generic receiver T[P]
		if id, ok := t.X.(*ast.Ident); ok {
			return ident, id.Name, true
		}
	}
	return ident, "", false
}

// nilGuarded accepts a method when a `if recv == nil` guard appears
// within its first two statements (the Registry snapshot pattern
// initializes a zero value first), or when the body never dereferences a
// field of the receiver — pure delegation to other (checked) methods is
// nil-safe by induction.
func nilGuarded(pkg *Package, fd *ast.FuncDecl, recv *ast.Ident) bool {
	if recv == nil {
		// No receiver name: the body cannot dereference it.
		return true
	}
	recvObj := pkg.Info.Defs[recv]
	stmts := fd.Body.List
	for i := 0; i < len(stmts) && i < 2; i++ {
		if isNilGuard(pkg, stmts[i], recvObj) {
			return true
		}
	}
	return !derefsReceiver(pkg, fd.Body, recvObj)
}

// isNilGuard matches `if recv == nil { ... return ... }`.
func isNilGuard(pkg *Package, st ast.Stmt, recvObj types.Object) bool {
	ifStmt, ok := st.(*ast.IfStmt)
	if !ok || ifStmt.Init != nil {
		return false
	}
	bin, ok := ifStmt.Cond.(*ast.BinaryExpr)
	if !ok || bin.Op.String() != "==" {
		return false
	}
	isRecv := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pkg.Info.Uses[id] == recvObj
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if !(isRecv(bin.X) && isNil(bin.Y)) && !(isRecv(bin.Y) && isNil(bin.X)) {
		return false
	}
	// The guard must leave the method.
	n := len(ifStmt.Body.List)
	if n == 0 {
		return false
	}
	_, ok = ifStmt.Body.List[n-1].(*ast.ReturnStmt)
	return ok
}

// derefsReceiver reports whether the body accesses a field of the
// receiver (or explicitly dereferences it) — the operations that panic
// on nil. Method calls on the receiver do not count.
func derefsReceiver(pkg *Package, body *ast.BlockStmt, recvObj types.Object) bool {
	deref := false
	ast.Inspect(body, func(n ast.Node) bool {
		if deref {
			return false
		}
		switch t := n.(type) {
		case *ast.SelectorExpr:
			x, ok := ast.Unparen(t.X).(*ast.Ident)
			if !ok || pkg.Info.Uses[x] != recvObj {
				return true
			}
			if sel, ok := pkg.Info.Selections[t]; ok && sel.Kind() == types.FieldVal {
				deref = true
				return false
			}
		case *ast.StarExpr:
			if x, ok := ast.Unparen(t.X).(*ast.Ident); ok && pkg.Info.Uses[x] == recvObj {
				deref = true
				return false
			}
		}
		return true
	})
	return deref
}
