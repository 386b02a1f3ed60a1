package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// loadFixture loads one testdata directory under an overridden import
// path: analyzer applicability keys off Package.Path, so a fixture can
// impersonate a sim-path or transport package without living there.
func loadFixture(t *testing.T, dir, path string) *Package {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	p, err := l.loadDir(filepath.Join("testdata", dir), path)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	if len(p.TypeErrors) > 0 {
		t.Fatalf("fixture %s has type errors: %v", dir, p.TypeErrors)
	}
	return p
}

// wantMarkers reads a fixture's //want:<check> markers: the golden
// expectation is "exactly these (file, line, check) triples".
func wantMarkers(t *testing.T, dir string) map[string][]string {
	t.Helper()
	const marker = "//want:"
	want := map[string][]string{}
	fixDir := filepath.Join("testdata", dir)
	ents, err := os.ReadDir(fixDir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(fixDir, e.Name()))
		if err != nil {
			t.Fatalf("read fixture: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, marker)
			if idx < 0 {
				continue
			}
			fields := strings.Fields(line[idx+len(marker):])
			if len(fields) == 0 {
				t.Fatalf("%s:%d: empty //want: marker", e.Name(), i+1)
			}
			key := fmt.Sprintf("%s:%d", e.Name(), i+1)
			want[key] = append(want[key], fields[0])
		}
	}
	return want
}

// TestGolden runs the full suite over each per-check fixture and demands
// an exact match against the //want markers: every flagged line is
// expected, every clean shape stays clean, across all analyzers at once
// (a fixture for one check must not trip another).
func TestGolden(t *testing.T) {
	cases := []struct {
		dir  string
		path string
	}{
		{"determinism", "volcast/internal/codec"},
		{"lockedsend", "volcast/internal/lint/testdata/lockedsend"},
		{"tickleak", "volcast/internal/lint/testdata/tickleak"},
		{"wireerr", "volcast/internal/transport"},
		{"lockorder", "volcast/internal/hub"},
		{"hotpathalloc", "volcast/internal/lint/testdata/hotpathalloc"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg := loadFixture(t, tc.dir, tc.path)
			res := Run([]*Package{pkg})

			got := map[string][]string{}
			for _, f := range res.Findings {
				key := fmt.Sprintf("%s:%d", filepath.Base(f.File), f.Line)
				got[key] = append(got[key], f.Check)
			}
			want := wantMarkers(t, tc.dir)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no //want markers (needs at least one flagged case)", tc.dir)
			}
			for _, m := range []map[string][]string{got, want} {
				for _, v := range m {
					sort.Strings(v)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("findings mismatch\n got: %v\nwant: %v", got, want)
				for _, f := range res.Findings {
					t.Logf("  finding: %s", f)
				}
			}
		})
	}
}

// TestIgnoreDirectives pins down the directive hygiene rules on the
// ignore fixture: one justified suppression, one missing-reason and one
// unknown-check malformed directive (their findings stay active), and one
// stale directive that matches no finding.
func TestIgnoreDirectives(t *testing.T) {
	pkg := loadFixture(t, "ignore", "volcast/internal/lint/testdata/ignore")
	res := Run([]*Package{pkg})

	if len(res.Suppressed) != 1 {
		t.Fatalf("suppressed = %d, want 1: %v", len(res.Suppressed), res.Suppressed)
	}
	s := res.Suppressed[0]
	if s.Check != "tickleak" || !strings.Contains(s.SuppressReason, "process owns this ticker") {
		t.Errorf("suppressed finding = %+v, want tickleak with its audit reason", s)
	}

	byCheck := map[string]int{}
	var missingReason, unknownCheck, unused int
	for _, f := range res.Findings {
		byCheck[f.Check]++
		if f.Check != DirectiveCheck {
			continue
		}
		switch {
		case strings.Contains(f.Msg, "missing reason"):
			missingReason++
		case strings.Contains(f.Msg, `unknown check "gophers"`):
			unknownCheck++
		case strings.Contains(f.Msg, "matches no finding"):
			unused++
		}
	}
	if byCheck["tickleak"] != 2 {
		t.Errorf("active tickleak findings = %d, want 2 (malformed directives must not suppress)", byCheck["tickleak"])
	}
	if byCheck[DirectiveCheck] != 3 || missingReason != 1 || unknownCheck != 1 || unused != 1 {
		t.Errorf("directive findings = %d (missingReason=%d unknownCheck=%d unused=%d), want 3 (1/1/1)\nfindings: %v",
			byCheck[DirectiveCheck], missingReason, unknownCheck, unused, res.Findings)
	}
}
