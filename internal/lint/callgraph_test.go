package lint

import (
	"go/types"
	"testing"
)

const cgFixPath = "volcast/internal/lint/testdata/callgraph"

func buildFixtureGraph(t *testing.T) *CallGraph {
	t.Helper()
	pkg := loadFixture(t, "callgraph", cgFixPath)
	return BuildCallGraph([]*Package{pkg})
}

// TestCallGraphResolution pins the resolution rules: concrete calls and
// methods resolve, interface dispatch and func values stay nil, go sites
// are marked, go-literal bodies are excluded, deferred calls are call
// sites and conversions are not.
func TestCallGraphResolution(t *testing.T) {
	g := buildFixtureGraph(t)

	calls := func(fn string) []CallSite {
		t.Helper()
		n := g.Lookup(cgFixPath, "", fn)
		if n == nil {
			t.Fatalf("function %s not in graph", fn)
		}
		return n.Calls
	}
	calleeName := func(c CallSite) string {
		if c.Callee == nil {
			return "<nil>"
		}
		return c.Callee.Name()
	}

	// Direct call resolves.
	if cs := calls("Hot"); len(cs) != 1 || calleeName(cs[0]) != "helper" {
		t.Errorf("Hot calls = %v, want one resolved call to helper", cs)
	}
	// Concrete method resolves to *Dog.Sound.
	if cs := calls("CallsMethod"); len(cs) != 1 || calleeName(cs[0]) != "Sound" {
		t.Errorf("CallsMethod calls = %v, want one resolved call to Sound", cs)
	} else if got := recvName(cs[0].Callee); got != "Dog" {
		t.Errorf("CallsMethod callee receiver = %q, want Dog", got)
	}
	// Interface dispatch stays unresolved.
	if cs := calls("CallsInterface"); len(cs) != 1 || cs[0].Callee != nil {
		t.Errorf("CallsInterface calls = %v, want one unresolved call", cs)
	}
	// Func values stay unresolved.
	if cs := calls("CallsFuncValue"); len(cs) != 1 || cs[0].Callee != nil {
		t.Errorf("CallsFuncValue calls = %v, want one unresolved call", cs)
	}
	// go sites are marked and go-literal bodies are excluded: Spawns has
	// exactly two call sites (the literal launch and go helper), both Go,
	// and the helper() inside the literal body is not attributed.
	cs := calls("Spawns")
	if len(cs) != 2 {
		t.Fatalf("Spawns has %d call sites, want 2 (literal body must be excluded)", len(cs))
	}
	for _, c := range cs {
		if !c.Go {
			t.Errorf("Spawns call %v not marked Go", c)
		}
	}
	// A deferred call is a resolved call site on the function's own
	// goroutine.
	if cs := calls("Defers"); len(cs) != 1 || cs[0].Go || calleeName(cs[0]) != "helper" {
		t.Errorf("Defers calls = %v, want one resolved call to helper", cs)
	}
	// Conversions are not call sites.
	if cs := calls("Convert"); len(cs) != 0 {
		t.Errorf("Convert calls = %v, want none (conversion)", cs)
	}
	// Methods are nodes too.
	if g.Lookup(cgFixPath, "Dog", "Sound") == nil {
		t.Error("Dog.Sound missing from graph")
	}
}

// TestPropagate pins the fixpoint: facts flow through synchronous
// resolved calls (including transitively and via defer) but not through
// go statements or unresolved callees.
func TestPropagate(t *testing.T) {
	g := buildFixtureGraph(t)

	helper := g.Lookup(cgFixPath, "", "helper")
	sound := g.Lookup(cgFixPath, "Dog", "Sound")
	direct := map[*types.Func]facts{
		helper.Fn: {"helper-fact": true},
		sound.Fn:  {"sound-fact": true},
	}
	got := propagate(g, direct)

	has := func(fn, fact string) bool {
		n := g.Lookup(cgFixPath, "", fn)
		if n == nil {
			t.Fatalf("function %s not in graph", fn)
		}
		return got[n.Fn][fact]
	}
	if !has("Hot", "helper-fact") {
		t.Error("Hot must inherit helper-fact through its direct call")
	}
	if !has("Defers", "helper-fact") {
		t.Error("Defers must inherit helper-fact through the deferred call")
	}
	if has("Spawns", "helper-fact") {
		t.Error("Spawns must NOT inherit helper-fact through go statements")
	}
	if !has("CallsMethod", "sound-fact") {
		t.Error("CallsMethod must inherit sound-fact through the method call")
	}
	if !has("Chain", "sound-fact") {
		t.Error("Chain must inherit sound-fact transitively")
	}
	if has("CallsInterface", "sound-fact") {
		t.Error("CallsInterface must NOT inherit facts through interface dispatch")
	}
}
