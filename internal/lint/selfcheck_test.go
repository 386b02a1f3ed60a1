package lint

import (
	"path/filepath"
	"testing"
)

// TestSelfCheck asserts the repo itself stays vollint-clean — the same
// gate `make lint` and CI enforce, kept inside `go test ./...` so a
// regression fails the ordinary test run too. Every suppression that
// survives must carry its audit reason.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load(l.ModDir + "/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Load returned no packages")
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Fatalf("typecheck %s: %v", p.Path, e)
		}
	}
	res := Run(pkgs, Options{SchemaPath: filepath.Join(l.ModDir, "wire_schema.json")})
	for _, f := range res.Findings {
		t.Errorf("vollint: %s", f)
	}
	for _, f := range res.Suppressed {
		if f.SuppressReason == "" {
			t.Errorf("suppressed finding without a reason: %s", f)
		}
	}
}
