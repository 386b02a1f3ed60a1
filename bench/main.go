// Command volbench is the volcast benchmark: four workloads that drive the
// real hub, transport clients and stream simulator from one process, six
// end-to-end metrics measured with tracing off, and a traced layer ladder
// that decomposes the frame path stage by stage. BENCHMARK.json at the
// repository root names every workload and metric it prints; README.md in
// this directory defines them.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-quick]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"volcast/internal/obs"
)

// options are the flags a workload sees.
type options struct {
	seed    int64
	seconds float64
	quick   bool
	// single makes a pass set up once: the traced pass does not report
	// setup_s and has no time to repeat it.
	single  bool
	clients int
	outDir  string
}

// window returns the measured window length.
func (o options) window() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// setups is how many times set-up runs; setup_s is their quiet quartile,
// like every other timing (see round).
func (o options) setups() int {
	if o.quick || o.single {
		return 1
	}
	return 5
}

// warmup is the untimed lead-in after set-up.
func (o options) warmup() time.Duration {
	if o.quick {
		return 200 * time.Millisecond
	}
	return 2 * time.Second
}

// result is what one pass of one workload measured.
type result struct {
	attempted, failed int
	// problems lists every failed correctness check, for stderr.
	problems []string
	// values holds metrics by name; notes holds sample counts and other
	// context that is printed but is not a metric.
	values map[string]float64
	notes  map[string]float64
	// latencies are the window's operation latencies in ms, in arrival
	// order, and rounds what each round of it measured; they go into the
	// run's report file, not the result line.
	latencies []float64
	rounds    []round
}

func newResult() *result {
	return &result{values: map[string]float64{}, notes: map[string]float64{}}
}

// fail records a correctness violation; each one is a failed operation.
func (r *result) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(o options, mode passMode) (*result, error)
	// content is what the layer ladder walks; sim adds the simulator's
	// predict and cross-layer plan steps to its plan stage.
	content content
	sim     bool
}

// passMode selects what a pass attaches to the program.
type passMode int

const (
	passPlain  passMode = iota // end-to-end numbers: nothing attached
	passTracer                 // an obs.Tracer attached, for its overhead
)

// tracer returns what the pass attaches to hub, clients or session.
func (m passMode) tracer() *obs.Tracer {
	if m == passTracer {
		return obs.New(1 << 16)
	}
	return nil
}

var workloads = []workload{
	{name: "push_dense", content: pushDense.c,
		run: func(o options, m passMode) (*result, error) { return runPush(pushDense, o, m) }},
	{name: "push_fanout", content: pushFanout.c,
		run: func(o options, m passMode) (*result, error) { return runPush(pushFanout, o, m) }},
	{name: "cold_join", content: coldContent, run: runColdJoin},
	{name: "sim_multicast", content: simContent, sim: true, run: runSim},
}

func main() {
	name := flag.String("workload", "all", "workload to run: push_dense, push_fanout, cold_join, sim_multicast or all")
	seed := flag.Int64("seed", 1, "drives content, viewer cohort and fading; same seed, same inputs")
	seconds := flag.Float64("seconds", 20, "measured window per workload")
	traced := flag.Int("trace", 0, "1 = the traced pass: per-layer metrics, layer ladder, span files")
	quick := flag.Bool("quick", false, "tiny sizes and one set-up: a smoke run, not a measurement")
	out := flag.String("out", "out", "directory for reports and span files")
	flag.Parse()

	o := options{seed: *seed, seconds: *seconds, quick: *quick, outDir: *out}
	o.clients = runtime.NumCPU()
	if o.clients > 4 {
		o.clients = 4
	}
	if o.quick && o.seconds > 1.5 {
		o.seconds = 1.5
	}
	fmt.Fprintln(os.Stderr, envStamp(o))

	ok := true
	ran := false
	for _, w := range workloads {
		if *name != "all" && *name != w.name {
			continue
		}
		ran = true
		line, good, err := runOne(w, o, *traced == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "volbench: %s: %v\n", w.name, err)
			os.Exit(2)
		}
		fmt.Println(line)
		ok = ok && good
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "volbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload in the requested mode and returns its result
// line: the end-to-end metrics untraced, or the per-layer metrics traced.
func runOne(w workload, o options, traced bool) (line string, ok bool, err error) {
	var res *result
	names := endToEnd
	if traced {
		names = perLayer
		res, err = runTraced(w, o)
	} else {
		res, err = w.run(o, passPlain)
	}
	if err != nil {
		return "", false, err
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "volbench: %s: FAILED CHECK: %s\n", w.name, p)
	}
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]entry `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]entry{}}
	for _, m := range names {
		// A per-layer metric of a layer the workload never enters reads 0;
		// an end-to-end metric must always have been measured.
		v, have := res.values[m.name]
		if (!have && !traced) || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", false, fmt.Errorf("metric %s missing or not finite (%v)", m.name, v)
		}
		doc.Metrics[m.name] = entry{Value: v, Unit: m.unit}
	}
	printTable(w.name, o, res, names)
	raw, err := json.Marshal(doc)
	if err != nil {
		return "", false, err
	}
	if err := writeReport(w.name, o, traced, raw, res); err != nil {
		return "", false, err
	}
	return string(raw), doc.Correct, nil
}

// printTable writes the human-readable readout to stderr, so stdout
// stays one JSON document per workload.
func printTable(name string, o options, res *result, names []metricDef) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s seed=%d window=%.1fs  ops_attempted=%d ops_failed=%d\n", name, o.seed, o.seconds, res.attempted, res.failed)
	for _, m := range names {
		fmt.Fprintf(&b, "  %-36s %14.4f %s\n", m.name, res.values[m.name], m.unit)
	}
	for _, k := range sortedKeys(res.notes) {
		fmt.Fprintf(&b, "  (%s = %g)\n", k, res.notes[k])
	}
	fmt.Fprint(os.Stderr, b.String())
}

// writeReport files the result line, and beside it the raw latency
// samples and every round's readings, so a percentile or an estimator the
// line does not carry can be read off later.
func writeReport(name string, o options, traced bool, line []byte, res *result) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	t := 0
	if traced {
		t = 1
	}
	base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%d", name, o.seed, t))
	if err := os.WriteFile(base+".json", append(line, '\n'), 0o644); err != nil {
		return err
	}
	type roundDoc struct {
		WallS  float64 `json:"wall_s"`
		CPUS   float64 `json:"cpu_s"`
		Frames int     `json:"frames"`
		P50    float64 `json:"latency_ms_p50"`
		P90    float64 `json:"latency_ms_p90"`
		Slow   float64 `json:"host_slowdown"`
	}
	rounds := make([]roundDoc, len(res.rounds))
	for i, r := range res.rounds {
		rounds[i] = roundDoc{r.wall.Seconds(), r.cpu.Seconds(), r.frames, r.p50, r.p90, r.slow}
	}
	samples, err := json.Marshal(map[string]any{"unit": "ms", "latency": res.latencies, "rounds": rounds})
	if err != nil {
		return err
	}
	return os.WriteFile(base+"-latency.json", append(samples, '\n'), 0o644)
}

// envStamp is the one-line record of what ran where.
func envStamp(o options) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("volbench: clients=%d gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s seed=%d loopback=tcp/127.0.0.1",
		o.clients, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), commit, o.seed)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
