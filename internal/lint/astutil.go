package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/types"
)

// pkgFuncCall reports the (package path, function name) of a call to a
// package-level function through a package selector (e.g. time.Now()).
func pkgFuncCall(pkg *Package, call *ast.CallExpr) (path, name string, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	ident, okX := ast.Unparen(sel.X).(*ast.Ident)
	if !okX {
		return "", "", false
	}
	pn, okPkg := pkg.Info.Uses[ident].(*types.PkgName)
	if !okPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// methodCall reports the receiver expression, method name and receiver
// type of a method call (e.g. c.mu.Lock() -> c.mu, "Lock", sync.Mutex).
func methodCall(pkg *Package, call *ast.CallExpr) (recv ast.Expr, name string, typ types.Type, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return nil, "", nil, false
	}
	if s, okS := pkg.Info.Selections[sel]; !okS || s.Kind() != types.MethodVal {
		return nil, "", nil, false
	}
	tv, okT := pkg.Info.Types[sel.X]
	if !okT {
		return nil, "", nil, false
	}
	return sel.X, sel.Sel.Name, tv.Type, true
}

// typeOf is the type go/types recorded for e, or nil.
func typeOf(pkg *Package, e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isNamedType reports whether t (or the pointee, for pointers) is the
// named type path.name.
func isNamedType(t types.Type, path, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == name
}

// lookupInterface finds an exported interface type in a directly imported
// package (e.g. net.Conn), or nil when the package is not imported.
func lookupInterface(pkg *Package, path, name string) *types.Interface {
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() != path {
			continue
		}
		obj := imp.Scope().Lookup(name)
		if obj == nil {
			return nil
		}
		iface, ok := obj.Type().Underlying().(*types.Interface)
		if !ok {
			return nil
		}
		return iface
	}
	return nil
}

// implementsIface reports whether t or *t implements iface.
func implementsIface(t types.Type, iface *types.Interface) bool {
	if iface == nil || t == nil {
		return false
	}
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

// exprString renders an expression compactly for messages and lock keys.
func exprString(pkg *Package, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, pkg.Fset, e); err != nil {
		return "?"
	}
	return buf.String()
}

// funcBodies yields every function body of the package paired with the
// declaration it belongs to: all FuncDecl bodies plus package-level
// FuncLits outside any FuncDecl (var initializers). Nested FuncLits are
// NOT yielded separately — analyzers that need per-closure scopes walk
// into them on their own.
func funcBodies(pkg *Package) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					out = append(out, d.Body)
				}
			case *ast.GenDecl:
				ast.Inspect(d, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						out = append(out, lit.Body)
						return false
					}
					return true
				})
			}
		}
	}
	return out
}
