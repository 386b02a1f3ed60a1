package volcast

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportedFuncsHaveCallers keeps the module free of exported functions
// that no program code uses. It parses every non-test Go file of the
// module and of bench/ (testdata/ aside) and, for each exported top-level
// function and each exported method of an exported type, counts the
// identifiers of that name in non-test files, declarations of the name
// excluded. A count of zero fails unless the doc comment says why the
// function stays with a "Kept:" line. The root package (the public API),
// package main and internal/testutil are not checked, but their files
// count as callers.
//
// The count is by name, so it is conservative: a method that shares its
// name with a called one is never flagged, even when it is dead itself.
func TestExportedFuncsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	var candidates []*ast.FuncDecl
	uses := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(path)
		exempt := f.Name.Name == "main" || !strings.Contains(slash, "/") ||
			strings.HasPrefix(slash, "internal/testutil/")
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			exported := fd.Name.IsExported() && (fd.Recv == nil || ast.IsExported(recvType(fd)))
			if !exempt && exported && !strings.Contains(fd.Doc.Text(), "Kept:") {
				candidates = append(candidates, fd)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, fd := range candidates {
		if uses[fd.Name.Name] == 0 {
			dead = append(dead, fset.Position(fd.Pos()).String()+": "+funcName(fd))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside tests: delete it, or say why it stays with a Kept: line in its doc comment", d)
	}
}

// recvType names the receiver's type, without pointer or type parameters.
func recvType(fd *ast.FuncDecl) string {
	x := fd.Recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	return recvType(fd) + "." + fd.Name.Name
}
