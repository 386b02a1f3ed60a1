// Package lint is volcast's project-specific static-analysis suite: a
// small analyzer framework on the standard library's go/ast + go/parser +
// go/types (source importer — no x/tools dependency) that enforces the
// invariants the reproduction's correctness rests on and no generic tool
// checks. Simulation results must be a pure function of the seed, so
// sim-path packages must not read the wall clock or the global math/rand
// (determinism). Tickers must be stopped (tickleak), a goroutine must not
// block while it holds a mutex (lockedsend), and the transport must never
// silently drop a write error (wireerr).
//
// Every check is one Pass over all loaded packages, and the two flow
// checks — lockedsend, lockorder — share one statement-order walker
// (flow.go). One check looks across function boundaries: lockorder (mutex
// acquisition order across hub/session/transport/blockcache must stay
// acyclic and follow the declared hierarchy) builds a module-wide call
// graph and per-function summaries (callgraph.go, summary.go) for it.
//
// Rules a runtime test holds in fewer lines are not checks here: goroutine
// and wire.Buffer leaks (leakcheck), nil-safe observability types (the nil
// receiver sweeps in obs and metrics), wire protocol evolution
// (wire.TestWireSchema against wire_schema.json) and the frame path's
// zero allocations (each kernel package's TestHotPathAllocs).
//
// Findings carry file:line, the check name and a one-line fix hint. A
// deliberate exception is suppressed — with an audit trail — by a
//
//	//vollint:ignore <check> <reason>
//
// comment on the flagged line or the line above it. Directives without a
// reason, naming an unknown check, or matching no finding are themselves
// findings, so stale suppressions cannot accumulate.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one analyzer hit.
type Finding struct {
	Check string `json:"check"`
	File  string `json:"file"`
	Line  int    `json:"line"`
	Col   int    `json:"col"`
	Msg   string `json:"msg"`
	// Hint is the one-line suggested fix.
	Hint string `json:"hint,omitempty"`
	// Suppressed marks a finding matched by a //vollint:ignore directive;
	// SuppressReason carries the directive's audit-trail reason.
	Suppressed     bool   `json:"suppressed,omitempty"`
	SuppressReason string `json:"suppress_reason,omitempty"`
}

// String renders the finding in file:line:col form.
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Check, f.Msg)
	if f.Hint != "" {
		s += " (fix: " + f.Hint + ")"
	}
	return s
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	// Doc is the invariant the check enforces, one sentence.
	Doc string
	Run func(*Pass)
}

// Pass is one analyzer's run over every loaded package; a per-package
// check loops over Pkgs. All packages share one FileSet (the loader
// guarantees it), so positions are comparable across packages.
type Pass struct {
	Pkgs []*Package

	check    string
	findings []Finding
}

// Reportf records a finding at pos with a fix hint.
func (p *Pass) Reportf(pos token.Pos, hint, format string, args ...any) {
	pp := p.Pkgs[0].Fset.Position(pos)
	p.findings = append(p.findings, Finding{
		Check: p.check,
		File:  pp.Filename,
		Line:  pp.Line,
		Col:   pp.Column,
		Msg:   fmt.Sprintf(format, args...),
		Hint:  hint,
	})
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerDeterminism,
		analyzerLockedSend,
		analyzerTickLeak,
		analyzerWireErr,
		analyzerLockOrder,
	}
}

// AnalyzerNames returns the names of the full suite.
func AnalyzerNames() []string {
	var out []string
	for _, a := range Analyzers() {
		out = append(out, a.Name)
	}
	return out
}

// DirectiveCheck is the pseudo-check name under which malformed and
// unused //vollint:ignore directives are reported. It cannot itself be
// suppressed.
const DirectiveCheck = "directive"

// Result is the outcome of a suite run.
type Result struct {
	// Findings are the active (unsuppressed) findings, sorted by position.
	Findings []Finding `json:"findings"`
	// Suppressed are findings matched by an ignore directive.
	Suppressed []Finding `json:"suppressed,omitempty"`
}

// Run applies the full suite to the packages. Ignore directives are
// collected module-wide, so a finding can be suppressed at the line it
// lands on regardless of which package triggered the analysis.
func Run(pkgs []*Package) Result {
	var res Result
	if len(pkgs) == 0 {
		return res
	}
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var dirs []*directive
	for _, pkg := range pkgs {
		dirs = append(dirs, collectDirectives(pkg, known)...)
	}

	var found []Finding
	for _, a := range Analyzers() {
		pass := &Pass{Pkgs: pkgs, check: a.Name}
		a.Run(pass)
		found = append(found, pass.findings...)
	}

	for i := range found {
		if d := matchDirective(dirs, found[i]); d != nil {
			d.used = true
			found[i].Suppressed = true
			found[i].SuppressReason = d.reason
			res.Suppressed = append(res.Suppressed, found[i])
		} else {
			res.Findings = append(res.Findings, found[i])
		}
	}
	for _, d := range dirs {
		switch {
		case d.malformed != "":
			res.Findings = append(res.Findings, Finding{
				Check: DirectiveCheck, File: d.file, Line: d.line, Col: d.col,
				Msg:  "malformed //vollint:ignore directive: " + d.malformed,
				Hint: "write //vollint:ignore <check> <reason>",
			})
		case !d.used:
			res.Findings = append(res.Findings, Finding{
				Check: DirectiveCheck, File: d.file, Line: d.line, Col: d.col,
				Msg:  fmt.Sprintf("//vollint:ignore %s directive matches no finding", d.check),
				Hint: "remove the stale suppression",
			})
		}
	}
	sortFindings(res.Findings)
	sortFindings(res.Suppressed)
	return res
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
}
