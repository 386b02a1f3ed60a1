package lint

import "go/types"

// Per-function summaries and their fixpoint propagation. A summary is a
// set of string-keyed facts (the lock classes a function acquires).
// propagate closes the direct facts over the call graph: a function owns
// every fact of every module-resolved callee it can reach on its own
// goroutine. Unknown callees (nil Callee) and go-spawned calls contribute
// nothing — the conservative direction, because a fact that cannot be
// proven to flow into the caller must not produce a finding there.

// facts is one function's summary.
type facts map[string]bool

// propagate returns the transitive closure of direct over g: for every
// function, the union of its own facts and those of every callee
// reachable through synchronous (non-go) module-resolved calls. The
// input maps are not mutated.
func propagate(g *CallGraph, direct map[*types.Func]facts) map[*types.Func]facts {
	out := make(map[*types.Func]facts, len(g.Nodes))
	for fn := range g.Nodes {
		f := facts{}
		for k := range direct[fn] {
			f[k] = true
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
		set := out[fn]
		changed := false
		for _, call := range g.Nodes[fn].Calls {
			if call.Go || call.Callee == nil {
				continue
			}
			for k := range out[call.Callee] {
				if !set[k] {
					set[k] = true
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
