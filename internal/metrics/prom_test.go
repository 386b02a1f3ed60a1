package metrics

import (
	"strconv"
	"strings"
	"testing"
)

func TestPromNameSanitization(t *testing.T) {
	cases := []struct {
		in, name, labels string
	}{
		{"hub.frames", "hub_frames", ""},
		{"hub.session.lobby.frames", "hub_session_frames", `{scene="lobby"}`},
		{"blockcache.encode.session.scene-1.hits", "blockcache_encode_session_hits", `{scene="scene-1"}`},
		{"2fast.metric", "_2fast_metric", ""},
		{"hub.session.a\"b.frames", "hub_session_frames", `{scene="a\"b"}`},
		{"weird metric%name", "weird_metric_name", ""},
		// "session" as the final or penultimate segment has no scene to fold.
		{"hub.session", "hub_session", ""},
		{"hub.session.frames", "hub_session_frames", ""},
	}
	for _, c := range cases {
		name, labels := promName(c.in)
		if name != c.name || labels != c.labels {
			t.Errorf("promName(%q) = (%q, %q), want (%q, %q)", c.in, name, labels, c.name, c.labels)
		}
	}
}

func TestPromLabelEscaping(t *testing.T) {
	if got := escapeLabel(`a\b"c` + "\n"); got != `a\\b\"c\n` {
		t.Fatalf("escapeLabel = %q", got)
	}
}

func TestPromBucketCumulativity(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.5, 5, 50, 500} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := []string{
		`lat_bucket{le="1"} 2`,
		`lat_bucket{le="10"} 3`,
		`lat_bucket{le="100"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		`lat_count 5`,
	}
	idx := -1
	for _, line := range want {
		at := strings.Index(out, line)
		if at < 0 {
			t.Fatalf("missing %q in:\n%s", line, out)
		}
		if at < idx {
			t.Fatalf("%q out of order in:\n%s", line, out)
		}
		idx = at
	}
}

func TestPromGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("hub.frames").Add(42)
	r.Counter("hub.session.lobby.frames").Add(7)
	r.Counter("hub.session.stage.frames").Add(9)
	h := r.Histogram("hub.session.lobby.latency_ms", []float64{1, 33})
	h.Observe(0.5)
	h.Observe(10)
	h.Observe(100)
	w := r.Windowed("hub.session.lobby.window.frame_ms", []float64{1, 33})
	w.Observe(10)
	w.Observe(10)
	r.WindowedCounter("hub.session.lobby.window.misses").Add(3)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	golden := `# TYPE hub_frames_total counter
hub_frames_total 42
# TYPE hub_session_frames_total counter
hub_session_frames_total{scene="lobby"} 7
hub_session_frames_total{scene="stage"} 9
# TYPE hub_session_latency_ms histogram
hub_session_latency_ms_bucket{scene="lobby",le="1"} 1
hub_session_latency_ms_bucket{scene="lobby",le="33"} 2
hub_session_latency_ms_bucket{scene="lobby",le="+Inf"} 3
hub_session_latency_ms_sum{scene="lobby"} 110.5
hub_session_latency_ms_count{scene="lobby"} 3
# TYPE hub_session_window_frame_ms gauge
hub_session_window_frame_ms{scene="lobby",quantile="0.5"} 17
hub_session_window_frame_ms{scene="lobby",quantile="0.95"} 31.4
hub_session_window_frame_ms{scene="lobby",quantile="0.99"} 32.68
# TYPE hub_session_window_frame_ms_count gauge
hub_session_window_frame_ms_count{scene="lobby"} 2
# TYPE hub_session_window_misses gauge
hub_session_window_misses{scene="lobby"} 3
`
	if got := b.String(); got != golden {
		t.Fatalf("golden mismatch.\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

// TestPromGoldenQuantiles pins the interpolation the golden test relies
// on: both window samples sit in the (1,33] bucket so all quantiles
// interpolate inside it.
func TestPromGoldenQuantiles(t *testing.T) {
	w := NewWindowed([]float64{1, 33}, 0, 0)
	w.Observe(10)
	w.Observe(10)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		v := w.Quantile(q)
		if v <= 1 || v > 33 {
			t.Fatalf("q%v = %g outside (1,33]", q, v)
		}
	}
}

func TestPromParsesAsExposition(t *testing.T) {
	// Minimal structural parse of the exposition: every non-comment line
	// must be `name[{labels}] value` with a float-parseable value, and
	// every sample must follow a # TYPE for its family.
	r := NewRegistry()
	r.Counter("a.b").Inc()
	r.Histogram("stage.cull", nil).Observe(1.5)
	r.Histogram("h", nil).Observe(3)
	r.Windowed("w", nil).Observe(3)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	sawType := false
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("bad TYPE line %q", line)
			}
			switch f[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("bad type %q", f[3])
			}
			sawType = true
			continue
		}
		if !sawType {
			t.Fatalf("sample before any # TYPE: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("no value separator in %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unterminated labels in %q", line)
			}
			name = name[:i]
		}
		for j, r := range name {
			ok := r == '_' || r == ':' ||
				(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
				(r >= '0' && r <= '9' && j > 0)
			if !ok {
				t.Fatalf("invalid metric name %q", name)
			}
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
	}
}

func TestPromNilRegistry(t *testing.T) {
	var r *Registry
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil registry wrote %q", b.String())
	}
}
