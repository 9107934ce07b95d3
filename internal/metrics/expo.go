package metrics

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// quantiles exported for every distribution, as Prometheus summary
// series.
var exportQuantiles = []float64{0.5, 0.95, 0.99}

// escapeLabelValue applies Prometheus text-format escaping: backslash,
// double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline (quotes are
// legal there).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// writeLabels renders {k="v",...}; extra appends one synthetic pair
// (the summary quantile label).
func writeLabels(w *bytes.Buffer, names, values []string, extraName, extraValue string) {
	if len(names) == 0 && extraName == "" {
		return
	}
	w.WriteByte('{')
	sep := false
	for i, n := range names {
		if sep {
			w.WriteByte(',')
		}
		sep = true
		w.WriteString(n)
		w.WriteString(`="`)
		w.WriteString(escapeLabelValue(values[i]))
		w.WriteByte('"')
	}
	if extraName != "" {
		if sep {
			w.WriteByte(',')
		}
		w.WriteString(extraName)
		w.WriteString(`="`)
		w.WriteString(extraValue)
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

func writeFloat(w *bytes.Buffer, v float64) {
	w.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): families sorted by name, each with HELP and
// TYPE lines; series within a family sorted by label values;
// distributions as summaries with quantile/_sum/_count series. The
// text is rendered in memory with Updates held off (see consistent) and
// written after, so a slow reader never delays an Update.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var bw bytes.Buffer
	r.consistent(func() { r.writePrometheus(&bw) })
	_, err := w.Write(bw.Bytes())
	return err
}

func (r *Registry) writePrometheus(bw *bytes.Buffer) {
	for _, f := range r.sortedFamilies() {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, c := range f.sortedChildren() {
			switch f.kind {
			case KindCounter:
				bw.WriteString(f.name)
				writeLabels(bw, f.labels, c.values, "", "")
				bw.WriteByte(' ')
				bw.WriteString(strconv.FormatUint(c.ctr.Value(), 10))
				bw.WriteByte('\n')
			case KindGauge:
				bw.WriteString(f.name)
				writeLabels(bw, f.labels, c.values, "", "")
				bw.WriteByte(' ')
				writeFloat(bw, c.gauge.Value())
				bw.WriteByte('\n')
			default:
				for _, q := range exportQuantiles {
					bw.WriteString(f.name)
					writeLabels(bw, f.labels, c.values, "quantile", strconv.FormatFloat(q, 'g', -1, 64))
					bw.WriteByte(' ')
					writeFloat(bw, c.dist.Quantile(q))
					bw.WriteByte('\n')
				}
				bw.WriteString(f.name)
				bw.WriteString("_sum")
				writeLabels(bw, f.labels, c.values, "", "")
				bw.WriteByte(' ')
				writeFloat(bw, c.dist.Sum())
				bw.WriteByte('\n')
				bw.WriteString(f.name)
				bw.WriteString("_count")
				writeLabels(bw, f.labels, c.values, "", "")
				bw.WriteByte(' ')
				bw.WriteString(strconv.FormatUint(c.dist.Count(), 10))
				bw.WriteByte('\n')
			}
		}
	}
}

// Handler serves the text exposition at GET.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Sample is one series in a typed snapshot. Counters and gauges carry
// Value; distributions carry Count/Sum/Min/Max plus point-in-time
// quantile estimates.
type Sample struct {
	Labels    map[string]string  `json:"labels,omitempty"`
	Value     float64            `json:"value"`
	Count     uint64             `json:"count,omitempty"`
	Sum       float64            `json:"sum,omitempty"`
	Min       float64            `json:"min,omitempty"`
	Max       float64            `json:"max,omitempty"`
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
}

// Family is one named metric in a typed snapshot.
type Family struct {
	Name    string   `json:"name"`
	Help    string   `json:"help"`
	Kind    string   `json:"kind"` // "counter", "gauge" or "summary"
	Samples []Sample `json:"samples"`
}

// RegistrySnapshot is the typed JSON form of the whole registry,
// served at GET /v1/metrics and re-exported by package api.
type RegistrySnapshot struct {
	Families []Family `json:"families"`
}

// Snapshot captures every family and series. Families and series come
// out in exposition order (sorted), so consecutive snapshots diff
// cleanly, and no multi-series Update is half-visible in one.
func (r *Registry) Snapshot() RegistrySnapshot {
	var snap RegistrySnapshot
	if r == nil {
		return snap
	}
	r.consistent(func() { snap = r.snapshot() })
	return snap
}

func (r *Registry) snapshot() RegistrySnapshot {
	var snap RegistrySnapshot
	for _, f := range r.sortedFamilies() {
		fam := Family{Name: f.name, Help: f.help, Kind: f.kind.String()}
		for _, c := range f.sortedChildren() {
			s := Sample{}
			if len(f.labels) > 0 {
				s.Labels = make(map[string]string, len(f.labels))
				for i, n := range f.labels {
					s.Labels[n] = c.values[i]
				}
			}
			switch f.kind {
			case KindCounter:
				s.Value = float64(c.ctr.Value())
			case KindGauge:
				s.Value = c.gauge.Value()
			default:
				s.Count = c.dist.Count()
				s.Sum = c.dist.Sum()
				s.Min = c.dist.Min()
				s.Max = c.dist.Max()
				s.Quantiles = make(map[string]float64, len(exportQuantiles))
				for _, q := range exportQuantiles {
					s.Quantiles[strconv.FormatFloat(q, 'g', -1, 64)] = c.dist.Quantile(q)
				}
				s.Value = s.Sum
			}
			fam.Samples = append(fam.Samples, s)
		}
		snap.Families = append(snap.Families, fam)
	}
	return snap
}
