package volcast

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestDesignInventoryCoversPackages holds DESIGN.md §3 to the tree: every
// directory of the module with a non-test Go file is named, in backticks,
// in the first column of the inventory table (the root package as
// `volcast`). Nested modules (bench/) and testdata are not the module's
// packages.
func TestDesignInventoryCoversPackages(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(design)
	start := strings.Index(text, "\n## 3.")
	if start < 0 {
		t.Fatal("DESIGN.md has no §3")
	}
	section := text[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	named := map[string]bool{}
	quoted := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(section, "\n") {
		cols := strings.Split(line, "|")
		if len(cols) < 3 {
			continue
		}
		for _, m := range quoted.FindAllStringSubmatch(cols[1], -1) {
			named[m[1]] = true
		}
	}
	if len(named) == 0 {
		t.Fatal("DESIGN.md §3 has no table rows")
	}
	var missing []string
	for _, dir := range packageDirs(t) {
		if !named[dir] {
			missing = append(missing, dir)
		}
	}
	if len(missing) > 0 {
		t.Errorf("DESIGN.md §3 has no row for %s", strings.Join(missing, ", "))
	}
}

// packageDirs lists the module's directories that hold a non-test Go
// file, slash-separated and relative to the root; the root is "volcast".
func packageDirs(t *testing.T) []string {
	t.Helper()
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.ToSlash(filepath.Dir(path))
			if dir == "." {
				dir = "volcast"
			}
			seen[dir] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, 0, len(seen))
	for dir := range seen {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	return dirs
}

// citingDocs are the files whose test, benchmark and fuzz names
// TestDocCitedTestsExist checks.
var citingDocs = []string{
	"DESIGN.md", "README.md", "EXPERIMENTS.md", "bench/README.md",
	".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml", "Makefile",
}

// TestDocCitedTestsExist: every Test…, Benchmark… and Fuzz… name the docs
// cite is declared in a _test.go file of the module or of bench/
// (testdata aside), so a rename cannot orphan a doc's claim.
func TestDocCitedTestsExist(t *testing.T) {
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	cited := map[string]bool{}
	for _, doc := range citingDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cite.FindAllString(string(text), -1) {
			if !declared[name] && !cited[name] {
				t.Errorf("%s cites %s, which no _test.go declares", doc, name)
			}
			cited[name] = true
		}
	}
	if len(cited) == 0 {
		t.Fatal("the docs cite no test names: the scan checks nothing")
	}
	t.Logf("%d names cited across %d files; %d declared", len(cited), len(citingDocs), len(declared))
}
