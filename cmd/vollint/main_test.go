package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"volcast/internal/lint"
)

const tickleakFixture = "../../internal/lint/testdata/tickleak"

// TestRunFlagsFixture drives the CLI against the deliberately-bad
// tickleak fixture — the demonstration that the `make lint` gate fails
// when a check regresses. The full suite runs, and the fixture trips
// tickleak alone (TestGolden forbids cross-check hits).
func TestRunFlagsFixture(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{tickleakFixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if got := strings.Count(out.String(), ": tickleak: "); got != 3 {
		t.Fatalf("tickleak findings = %d, want 3\n%s", got, out.String())
	}
	if got := strings.Count(out.String(), "\n"); got != 4 {
		t.Errorf("output lines = %d, want 3 findings and the summary\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "vollint: 3 finding(s)") {
		t.Errorf("missing summary line:\n%s", out.String())
	}
}

// TestRunJSON checks the machine-readable shape CI archives.
func TestRunJSON(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", tickleakFixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, errb.String())
	}
	var rep struct {
		Checks   []string `json:"checks"`
		Packages int      `json:"packages"`
		Findings []struct {
			Check string `json:"check"`
			File  string `json:"file"`
			Line  int    `json:"line"`
			Msg   string `json:"msg"`
			Hint  string `json:"hint"`
		} `json:"findings"`
		Suppressed []json.RawMessage `json:"suppressed"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if rep.Packages != 1 || !reflect.DeepEqual(rep.Checks, lint.AnalyzerNames()) {
		t.Errorf("packages=%d checks=%v, want 1 package and the full suite", rep.Packages, rep.Checks)
	}
	if len(rep.Findings) != 3 {
		t.Fatalf("findings = %d, want 3\n%s", len(rep.Findings), out.String())
	}
	for _, f := range rep.Findings {
		if f.Check != "tickleak" || f.File == "" || f.Line == 0 || f.Msg == "" || f.Hint == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
	if rep.Suppressed == nil {
		t.Errorf("suppressed must be [] (not null) for stable consumers")
	}
}

// TestRunCleanPackage: a clean package exits 0 with no output.
func TestRunCleanPackage(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"../../internal/geom"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	// The full suite, all five checks. A new analyzer must be added here
	// (and to the docs) deliberately.
	want := []string{
		"determinism", "lockedsend", "tickleak",
		"wireerr", "lockorder",
	}
	names := lint.AnalyzerNames()
	if len(names) != len(want) {
		t.Errorf("AnalyzerNames() has %d checks, want %d: %v", len(names), len(want), names)
	}
	for _, name := range want {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

// TestRunUnknownCheck: an ignore directive naming a check the suite
// does not have is itself a finding, so the run fails and names it.
func TestRunUnknownCheck(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"../../internal/lint/testdata/ignore"}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), `unknown check "gophers"`) {
		t.Errorf("stdout missing diagnostic:\n%s", out.String())
	}
}
