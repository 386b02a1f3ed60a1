package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkDoc is the part of ../BENCHMARK.json the harness must match.
type benchmarkDoc struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestHarnessMatchesBenchmarkJSON runs every workload in -quick mode,
// untraced and traced, and checks that the harness prints exactly the
// workloads and metrics BENCHMARK.json declares: same names, same units,
// every value finite, no operation failed.
func TestHarnessMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloads[i].name)
		}
	}
	sameDefs(t, "end_to_end", doc.EndToEnd, endToEnd)
	sameDefs(t, "per_layer", doc.PerLayer, perLayer)

	o := options{seed: 1, seconds: 1.5, quick: true, clients: 2, outDir: t.TempDir()}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			line, ok, err := runOne(w, o, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !ok {
				t.Errorf("%s traced=%v: reported failed operations: %s", w.name, traced, line)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			checkLine(t, w.name, line, want)
		}
	}
}

func sameDefs(t *testing.T, section string, doc []struct{ Name, Unit, Better string }, have []metricDef) {
	t.Helper()
	if len(doc) != len(have) {
		t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", section, len(doc), len(have))
	}
	for i, d := range doc {
		if d.Name != have[i].name || d.Unit != have[i].unit || d.Better != have[i].better {
			t.Errorf("%s[%d]: BENCHMARK.json has %v, the harness %v", section, i, d, have[i])
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkLine parses one result line and holds it to the driver's contract.
func checkLine(t *testing.T, workload, line string, want []metricDef) {
	t.Helper()
	var out struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("%s: result line: %v", workload, err)
	}
	if out.Correct == nil || out.Attempted == nil || out.Failed == nil || *out.Attempted < 1 {
		t.Fatalf("%s: result line lacks correct/attempted/failed: %s", workload, line)
	}
	if len(out.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, want %d", workload, len(out.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := out.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", workload, m.name)
		case got.Value == nil || math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
			t.Errorf("%s: metric %s is not a finite number", workload, m.name)
		case got.Unit != m.unit || got.Unit == "":
			t.Errorf("%s: metric %s has unit %q, want %q", workload, m.name, got.Unit, m.unit)
		case !nameRE.MatchString(m.name):
			t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", workload, m.name)
		}
	}
}
