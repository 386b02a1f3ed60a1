// Command vollint type-checks the module and runs volcast's
// project-specific static-analysis suite (internal/lint): six checks
// (determinism, lockedsend, tickleak, wireerr, lockorder,
// hotpathalloc), each one pass over every loaded package with the
// module call graph at hand.
// Findings carry file:line, the check name and a fix hint; a
// //vollint:ignore <check> <reason> comment suppresses one with an audit
// trail, and is the only way to tolerate a finding.
//
// Usage:
//
//	vollint [-json] [-list] [-show-ignored] [packages...]
//
// Patterns default to ./... and follow go-tool conventions (directories,
// module import paths, trailing /... for recursion). Exit status is 0
// when clean, 1 on findings, 2 on usage, parse, or type errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"volcast/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vollint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON")
	showIgnored := fs.Bool("show-ignored", false, "also print suppressed findings with their reasons")
	list := fs.Bool("list", false, "list the available checks and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintf(stderr, "vollint: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "vollint: %v\n", err)
		return 2
	}
	typeErrs := 0
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			typeErrs++
			fmt.Fprintf(stderr, "vollint: typecheck: %v\n", e)
		}
	}
	if typeErrs > 0 {
		return 2
	}

	res := lint.Run(pkgs)

	if *jsonOut {
		out := struct {
			Checks     []string       `json:"checks"`
			Packages   int            `json:"packages"`
			Findings   []lint.Finding `json:"findings"`
			Suppressed []lint.Finding `json:"suppressed"`
		}{Checks: lint.AnalyzerNames(), Packages: len(pkgs), Findings: res.Findings, Suppressed: res.Suppressed}
		if out.Findings == nil {
			out.Findings = []lint.Finding{}
		}
		if out.Suppressed == nil {
			out.Suppressed = []lint.Finding{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "vollint: %v\n", err)
			return 2
		}
	} else {
		cwd, _ := os.Getwd()
		for _, f := range res.Findings {
			fmt.Fprintln(stdout, relativize(cwd, f).String())
		}
		if *showIgnored {
			for _, f := range res.Suppressed {
				rf := relativize(cwd, f)
				fmt.Fprintf(stdout, "%s:%d:%d: %s: suppressed: %s (reason: %s)\n",
					rf.File, rf.Line, rf.Col, rf.Check, rf.Msg, rf.SuppressReason)
			}
		}
		if len(res.Findings) > 0 {
			fmt.Fprintf(stdout, "vollint: %d finding(s) in %d package(s), %d suppressed\n",
				len(res.Findings), len(pkgs), len(res.Suppressed))
		}
	}
	if len(res.Findings) > 0 {
		return 1
	}
	return 0
}

// relativize shortens a finding's file path relative to the working
// directory when possible.
func relativize(cwd string, f lint.Finding) lint.Finding {
	if cwd == "" {
		return f
	}
	if rel, err := filepath.Rel(cwd, f.File); err == nil && !strings.HasPrefix(rel, "..") {
		f.File = rel
	}
	return f
}
