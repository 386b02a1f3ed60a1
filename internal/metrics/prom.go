package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) of a registry, so
// any external scraper works against the debug endpoint out of the box.
// The registry's dotted names are mapped onto the Prometheus data model:
//
//   - every name is sanitized to [a-zA-Z0-9_:] with a leading underscore
//     when it would start with a digit;
//   - the per-session namespaces ("hub.session.<scene>.rest" and
//     "blockcache.<tier>.session.<scene>.rest") fold the scene into a
//     label, so all scenes share one metric family
//     (hub_session_rest{scene="<scene>"}) instead of exploding the
//     family space per session;
//   - counters gain the conventional _total suffix, histograms export
//     cumulative _bucket/_sum/_count series with an explicit +Inf
//     bucket, and sliding-window instruments export as gauges (the
//     quantile-labeled windowed readout, plus <name>_count).

// PromContentType is the Content-Type header for the exposition.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promSample is one exposition line: metric name (family name plus any
// suffix), optional labels, value.
type promSample struct {
	name   string
	labels string // rendered `{k="v",...}` or ""
	value  string
}

// promFamily groups the samples sharing one # TYPE declaration.
type promFamily struct {
	typ     string
	samples []promSample
}

// promName maps a registry name to (metric name, label pairs). A
// ".session.<scene>." segment is folded into a scene label; everything
// else is character-sanitized in place.
func promName(name string) (string, string) {
	parts := strings.Split(name, ".")
	labels := ""
	for i := 0; i+2 < len(parts); i++ {
		if parts[i] == "session" {
			labels = `{scene="` + escapeLabel(parts[i+1]) + `"}`
			parts = append(parts[:i+1], parts[i+2:]...)
			break
		}
	}
	return sanitizeMetricName(strings.Join(parts, "_")), labels
}

// sanitizeMetricName rewrites name into the Prometheus metric charset
// [a-zA-Z0-9_:], prefixing an underscore when it would start with a
// digit.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		switch {
		case ok:
			b.WriteRune(r)
		case r >= '0' && r <= '9': // leading digit
			b.WriteByte('_')
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// promFloat formats a value; Prometheus spells infinities +Inf/-Inf.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// mergeLabels splices an extra label pair into an existing rendered
// label set.
func mergeLabels(labels, extra string) string {
	if extra == "" {
		return labels
	}
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// WriteProm writes the snapshot in the Prometheus text exposition
// format, families and samples in deterministic sorted order.
func (s Snapshot) WriteProm(w io.Writer) error {
	fams := map[string]*promFamily{}
	add := func(family, typ string, samples ...promSample) {
		f, ok := fams[family]
		if !ok {
			f = &promFamily{typ: typ}
			fams[family] = f
		}
		f.samples = append(f.samples, samples...)
	}

	for _, name := range names(s.Counters) {
		m, labels := promName(name)
		add(m+"_total", "counter", promSample{m + "_total", labels, strconv.FormatInt(s.Counters[name], 10)})
	}
	for _, name := range names(s.Histograms) {
		h := s.Histograms[name]
		m, labels := promName(name)
		var cum int64
		samples := make([]promSample, 0, len(h.Counts)+2)
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = promFloat(h.Bounds[i])
			}
			samples = append(samples, promSample{
				m + "_bucket", mergeLabels(labels, `le="`+le+`"`), strconv.FormatInt(cum, 10)})
		}
		samples = append(samples,
			promSample{m + "_sum", labels, promFloat(h.Mean * float64(h.Count))},
			promSample{m + "_count", labels, strconv.FormatInt(h.Count, 10)})
		add(m, "histogram", samples...)
	}
	for _, name := range names(s.Windows) {
		win := s.Windows[name]
		m, labels := promName(name)
		add(m, "gauge",
			promSample{m, mergeLabels(labels, `quantile="0.5"`), promFloat(win.P50)},
			promSample{m, mergeLabels(labels, `quantile="0.95"`), promFloat(win.P95)},
			promSample{m, mergeLabels(labels, `quantile="0.99"`), promFloat(win.P99)})
		add(m+"_count", "gauge",
			promSample{m + "_count", labels, strconv.FormatInt(win.Count, 10)})
	}
	for _, name := range names(s.WindowCounters) {
		m, labels := promName(name)
		add(m, "gauge", promSample{m, labels, strconv.FormatInt(s.WindowCounters[name], 10)})
	}

	order := make([]string, 0, len(fams))
	for name := range fams {
		order = append(order, name)
	}
	sort.Strings(order)
	for _, name := range order {
		f := fams[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.typ); err != nil {
			return err
		}
		for _, sm := range f.samples {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", sm.name, sm.labels, sm.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteProm writes the registry's current state in the Prometheus text
// exposition format.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	return r.Snapshot().WriteProm(w)
}
