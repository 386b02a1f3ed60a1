package lint

import (
	"go/ast"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFlowRules pins the statement walker's rules on its own fixture,
// apart from any check: what state each probe sees, which probes are
// never reached, and how each send can block.
func TestFlowRules(t *testing.T) {
	pkg := loadFixture(t, "flow", "volcast/internal/lint/testdata/flow")
	arg := func(call *ast.CallExpr) string {
		s, _ := strconv.Unquote(call.Args[0].(*ast.BasicLit).Value)
		return s
	}
	seen := map[string]string{}
	sends := map[string]sendKind{}
	f := &flow[string, bool]{
		pkg: pkg,
		call: func(st map[string]bool, call *ast.CallExpr) {
			id, ok := call.Fun.(*ast.Ident)
			if !ok {
				return
			}
			switch id.Name {
			case "on":
				st[arg(call)] = true
			case "off":
				delete(st, arg(call))
			case "probe":
				var names []string
				for k := range st {
					names = append(names, k)
				}
				sort.Strings(names)
				seen[arg(call)] = strings.Join(names, ",")
			}
		},
		send: func(_ map[string]bool, s *ast.SendStmt, how sendKind) {
			sends[s.Value.(*ast.BasicLit).Value] = how
		},
	}
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				f.walk(fd.Body)
			}
		}
	}

	want := map[string]string{
		"if-arm":            "b",
		"else-arm":          "a",
		"after-if":          "a",
		"post":              "a,c",
		"after-loop-switch": "a",
		"deferred":          "",
		"after-defer":       "a",
		"inline":            "a,inline",
		"after-inline":      "a,inline",
		"stored":            "",
		"passed":            "",
		"spawned":           "",
		"comm":              "",
		"default":           "a",
		"after-select":      "a",
	}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("probe states\n got: %v\nwant: %v", seen, want)
	}
	wantSends := map[string]sendKind{"1": sendBlocks, "2": sendSelect, "3": sendPolls}
	if !reflect.DeepEqual(sends, wantSends) {
		t.Errorf("sends = %v, want %v", sends, wantSends)
	}
}
