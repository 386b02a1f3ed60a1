package lint

import (
	"go/ast"
)

var analyzerWireErr = &Analyzer{
	Name: "wireerr",
	Doc: "the transport must not silently discard errors from wire.WriteMessage, " +
		"Flush, or net.Conn writes — a swallowed write error is how zombie writers are born",
	Run: runWireErr,
}

// wireErrPackages are the packages the check applies to (the transport
// and the session hub own every socket write in the tree).
var wireErrPackages = map[string]bool{
	"volcast/internal/transport": true,
	"volcast/internal/hub":       true,
}

func runWireErr(p *Pass) {
	for _, pkg := range p.Pkgs {
		if wireErrPackages[pkg.Path] {
			checkWireErr(p, pkg)
		}
	}
}

func checkWireErr(p *Pass, pkg *Package) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.ExprStmt:
				if call, ok := t.X.(*ast.CallExpr); ok {
					if what, is := writeCall(pkg, call); is {
						report(p, call, what, "result dropped")
					}
				}
			case *ast.AssignStmt:
				if len(t.Rhs) != 1 {
					return true
				}
				call, ok := t.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				what, is := writeCall(pkg, call)
				if !is {
					return true
				}
				allBlank := true
				for _, l := range t.Lhs {
					if id, ok := l.(*ast.Ident); !ok || id.Name != "_" {
						allBlank = false
					}
				}
				if allBlank {
					report(p, call, what, "assigned to _")
				}
			case *ast.GoStmt, *ast.DeferStmt:
				return true
			}
			return true
		})
	}
}

func report(p *Pass, call *ast.CallExpr, what, how string) {
	p.Reportf(call.Pos(),
		"check the error — count a metric, log, or tear the connection down; a deliberate "+
			"best-effort write needs //vollint:ignore wireerr <reason>",
		"error from %s discarded (%s)", what, how)
}

// writeCall reports whether call is a socket-write-ish call whose error
// matters: wire.WriteMessage, a Flush() on a buffered writer, or a
// Write on a net.Conn.
func writeCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	if path, name, ok := pkgFuncCall(pkg, call); ok {
		if path == "volcast/internal/wire" && name == "WriteMessage" {
			return "wire.WriteMessage", true
		}
		return "", false
	}
	if recv, name, typ, ok := methodCall(pkg, call); ok {
		switch name {
		case "Flush":
			if isNamedType(typ, "bufio", "Writer") {
				return exprString(pkg, recv) + ".Flush", true
			}
		case "Write":
			if implementsIface(typ, lookupInterface(pkg, "net", "Conn")) {
				return exprString(pkg, recv) + ".Write", true
			}
		}
	}
	return "", false
}
