package lint

import (
	"go/ast"
)

// simPathPackages are the packages whose results must be a pure function
// of the seed: the worker-count and cache parity tests (and every
// experiment table) depend on byte-identical reruns. Wall-clock belongs
// only in obs, metrics, transport, faultnet and the cmd/example binaries.
var simPathPackages = map[string]bool{
	"volcast/internal/phy":         true,
	"volcast/internal/mac":         true,
	"volcast/internal/beam":        true,
	"volcast/internal/multicast":   true,
	"volcast/internal/core":        true,
	"volcast/internal/predict":     true,
	"volcast/internal/pointcloud":  true,
	"volcast/internal/codec":       true,
	"volcast/internal/experiments": true,
	"volcast/internal/trace":       true,
	// vivo builds the store the parity tests hash; its timing must flow
	// through the tracer/metrics layers, not raw time.Now.
	"volcast/internal/vivo": true,
	// tier maps strides to layer prefixes for every serving plan; a
	// nondeterministic rung choice would desync hub buffers from pull
	// tokens and break the layer parity renders.
	"volcast/internal/tier": true,
	// abr holds the density decision: Controller.Adapt must be a pure
	// function of its inputs, whichever loop (simulated or served) calls it.
	"volcast/internal/abr": true,
}

// wallClockFuncs are the time functions that read or depend on the wall
// clock (or spawn runtime timers).
var wallClockFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// seededRandCtors are the global math/rand functions that construct
// explicitly seeded generators — the only sanctioned use of the package
// outside tests.
var seededRandCtors = map[string]bool{"New": true, "NewSource": true}

var analyzerDeterminism = &Analyzer{
	Name: "determinism",
	Doc: "sim-path packages must be a pure function of the seed: no wall-clock " +
		"reads (time.Now/Sleep/...) and, module-wide, no un-seeded global math/rand",
	Run: runDeterminism,
}

func runDeterminism(p *Pass) {
	simPath := simPathPackages[p.Pkg.Path]
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name, ok := pkgFuncCall(p.Pkg, call)
			if !ok {
				return true
			}
			switch {
			case simPath && path == "time" && wallClockFuncs[name]:
				p.Reportf(call.Pos(),
					"route timing through obs.Tracer / metrics helpers, or take an explicit clock from the caller",
					"wall-clock time.%s in sim-path package %s breaks seed-determinism", name, p.Pkg.Path)
			case (path == "math/rand" || path == "math/rand/v2") && !seededRandCtors[name]:
				p.Reportf(call.Pos(),
					"draw from a *rand.Rand built with rand.New(rand.NewSource(seed))",
					"global math/rand.%s is un-seeded shared state; results stop being a function of the seed", name)
			}
			return true
		})
	}
}
