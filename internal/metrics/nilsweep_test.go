package metrics

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"volcast/internal/testutil/nilsweep"
)

// TestNilReceiverSweep: a nil Registry hands out nil instruments, so
// every exported pointer method of every exported type must return
// without touching its receiver. The list is checked against the
// package's source: a new exported type fails until it is swept.
func TestNilReceiverSweep(t *testing.T) {
	swept := map[string]reflect.Type{
		"Counter":         reflect.TypeFor[Counter](),
		"Histogram":       reflect.TypeFor[Histogram](),
		"HistogramStats":  reflect.TypeFor[HistogramStats](),
		"Registry":        reflect.TypeFor[Registry](),
		"Snapshot":        reflect.TypeFor[Snapshot](),
		"Windowed":        reflect.TypeFor[Windowed](),
		"WindowStats":     reflect.TypeFor[WindowStats](),
		"WindowedCounter": reflect.TypeFor[WindowedCounter](),
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				if ts := s.(*ast.TypeSpec); ts.Name.IsExported() && swept[ts.Name.Name] == nil {
					t.Errorf("%s: exported type %s is not in the nil receiver sweep: add it", fset.Position(ts.Pos()), ts.Name.Name)
				}
			}
		}
	}
	for _, typ := range swept {
		nilsweep.Sweep(t, typ)
	}
}
