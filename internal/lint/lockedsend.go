package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

var analyzerLockedSend = &Analyzer{
	Name: "lockedsend",
	Doc: "no channel send or blocking I/O while holding a sync.Mutex/RWMutex — " +
		"a full channel or a stalled peer would pin the lock and wedge every other locker",
	Run: runLockedSend,
}

// runLockedSend walks every function body with the set of mutexes held,
// keyed by the receiver expression, and flags a blocking operation made
// while the set is non-empty.
func runLockedSend(p *Pass) {
	flag := func(held map[string]bool, pos token.Pos, what string) {
		if len(held) == 0 {
			return
		}
		keys := make([]string, 0, len(held))
		for k := range held {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		p.Reportf(pos,
			"release the mutex before blocking, or use a select with a default case",
			"%s while holding %s can wedge every other locker", what, strings.Join(keys, ", "))
	}
	for _, pkg := range p.Pkgs {
		f := &flow[string, bool]{
			pkg: pkg,
			call: func(held map[string]bool, call *ast.CallExpr) {
				lockedSendCall(pkg, held, call, flag)
			},
			send: func(held map[string]bool, s *ast.SendStmt, how sendKind) {
				switch how {
				case sendBlocks:
					flag(held, s.Arrow, "channel send")
				case sendSelect:
					flag(held, s.Arrow, "blocking select send")
				}
			},
		}
		for _, body := range funcBodies(pkg) {
			f.walk(body)
		}
	}
}

// lockedSendCall applies a mutex call to held, or flags a blocking call.
func lockedSendCall(pkg *Package, held map[string]bool, call *ast.CallExpr, flag func(map[string]bool, token.Pos, string)) {
	if recv, name, typ, ok := methodCall(pkg, call); ok {
		if isMutex(typ) {
			key := exprString(pkg, recv)
			switch name {
			case "Lock", "RLock":
				held[key] = true
			case "Unlock", "RUnlock":
				delete(held, key)
			}
			return
		}
		// Blocking socket I/O under a lock stalls every other locker for
		// as long as the peer does.
		if name == "Read" || name == "Write" {
			conn := lookupInterface(pkg, "net", "Conn")
			if implementsIface(typ, conn) {
				flag(held, call.Pos(), "net.Conn."+name)
			}
		}
		if name == "Read" && isNamedType(typ, "volcast/internal/wire", "Reader") {
			flag(held, call.Pos(), "wire.Reader.Read")
		}
		return
	}
	if path, name, ok := pkgFuncCall(pkg, call); ok {
		switch {
		case path == "volcast/internal/wire" && (name == "WriteMessage" || name == "ReadMessage"):
			flag(held, call.Pos(), "wire."+name)
		case path == "time" && name == "Sleep":
			flag(held, call.Pos(), "time.Sleep")
		}
	}
}

// isMutex reports whether t (or its pointee) is sync.Mutex or
// sync.RWMutex.
func isMutex(t types.Type) bool {
	return isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")
}
