package volcast

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"

	"volcast/internal/lint"
)

// TestExportedFuncsHaveCallers keeps the module free of exported functions
// that no program code uses. It type-checks every non-test package of the
// module and of bench/ and, for each exported top-level function and each
// exported method of an exported type, counts the uses of that function's
// object in non-test code. A count of zero fails unless the doc comment
// says why the function stays with a "Kept:" line. The root package (the
// public API), package main and internal/testutil are not checked, but
// their code counts as callers.
//
// A method can be called through an interface without a use of its own
// object, so a method that makes its type satisfy an interface declared
// in the module or in a package it imports is not flagged.
func TestExportedFuncsHaveCallers(t *testing.T) {
	l, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(l.ModDir + "/...")
	if err != nil {
		t.Fatal(err)
	}
	uses := map[*types.Func]int{}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	addIfaces := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Fatalf("typecheck %s: %v", p.Path, e)
		}
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				uses[fn.Origin()]++
			}
		}
		addIfaces(p.Types.Scope())
		for _, imp := range p.Types.Imports() {
			addIfaces(imp.Scope())
		}
	}
	var dead []string
	for _, p := range pkgs {
		if p.Path == l.ModPath || p.Types.Name() == "main" || strings.HasPrefix(p.Path, l.ModPath+"/internal/testutil/") {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() || strings.Contains(fd.Doc.Text(), "Kept:") {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				if uses[fn] > 0 {
					continue
				}
				name := fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					n := named(recv)
					if !n.Obj().Exported() || satisfies(n, fn.Name(), ifaces) {
						continue
					}
					name = n.Obj().Name() + "." + name
				}
				dead = append(dead, p.Fset.Position(fd.Pos()).String()+": "+name)
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside tests: delete it, or say why it stays with a Kept: line in its doc comment", d)
	}
}

// satisfies reports whether the method named name makes n, or a pointer
// to it, implement one of ifaces that has the method.
func satisfies(n *types.Named, name string, ifaces []*types.Interface) bool {
	if n.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (types.Implements(n, it) || types.Implements(types.NewPointer(n), it)) {
				return true
			}
		}
	}
	return false
}

// named is the receiver's named type, through a pointer.
func named(recv *types.Var) *types.Named {
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
