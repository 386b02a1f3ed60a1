package lint

import (
	"go/token"
	"go/types"
)

// Per-function summaries and their fixpoint propagation. A summary is a
// set of string-keyed facts (lock classes acquired, allocation sources)
// each carrying one witness: a representative position, and for an
// inherited fact the callee it came through, so a finding can name the
// chain down to the source. propagate closes the direct facts over the
// call graph: a function owns every fact of every module-resolved callee
// it can reach on its own goroutine. Unknown callees (nil Callee) and
// go-spawned calls contribute nothing — the conservative direction for
// every check built on this layer, because a fact that cannot be proven
// to flow into the caller must not produce a finding there.

// facts is one function's summary: fact key → witness.
type facts map[string]witness

// witness is where a function gets a fact: the fact's own position with
// a nil Via, or the call site that imports it from Via.
type witness struct {
	Pos token.Pos
	Via *types.Func
}

// propagate returns the transitive closure of direct over g: for every
// function, the union of its own facts and those of every callee
// reachable through synchronous (non-go) module-resolved calls.
// Functions sealed reports true for keep only their direct facts (a nil
// sealed seals none). The input maps are not mutated.
func propagate(g *CallGraph, direct map[*types.Func]facts, sealed func(*types.Func) bool) map[*types.Func]facts {
	out := make(map[*types.Func]facts, len(g.Nodes))
	for fn := range g.Nodes {
		f := facts{}
		for k, w := range direct[fn] {
			f[k] = w
		}
		out[fn] = f
	}

	// Reverse edges: who must be revisited when a callee's set grows.
	callers := map[*types.Func][]*types.Func{}
	for fn, node := range g.Nodes {
		for _, call := range node.Calls {
			if call.Go || call.Callee == nil {
				continue
			}
			if _, inModule := g.Nodes[call.Callee]; !inModule {
				continue
			}
			callers[call.Callee] = append(callers[call.Callee], fn)
		}
	}

	work := make([]*types.Func, 0, len(g.Nodes))
	queued := map[*types.Func]bool{}
	enqueue := func(fn *types.Func) {
		if !queued[fn] {
			queued[fn] = true
			work = append(work, fn)
		}
	}
	for _, node := range g.order {
		enqueue(node.Fn)
	}
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		queued[fn] = false
		if sealed != nil && sealed(fn) {
			continue
		}
		node := g.Nodes[fn]
		set := out[fn]
		changed := false
		for _, call := range node.Calls {
			if call.Go || call.Callee == nil {
				continue
			}
			calleeSet, inModule := out[call.Callee]
			if !inModule {
				continue
			}
			for k := range calleeSet {
				if _, ok := set[k]; !ok {
					// The witness for an inherited fact is the call site
					// that imports it, which reads better in findings
					// than a position deep in the callee.
					set[k] = witness{Pos: call.Pos, Via: call.Callee}
					changed = true
				}
			}
		}
		if changed {
			for _, caller := range callers[fn] {
				enqueue(caller)
			}
		}
	}
	return out
}
