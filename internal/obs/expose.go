package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// formatFloat renders a float the way the Prometheus text format expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// seriesName renders `name{labels}` with optional extra label pairs appended
// after the series' own (used for histogram `le`).
func seriesName(name, labelKey string, extra ...string) string {
	var parts []string
	if labelKey != "" {
		parts = append(parts, labelKey)
	}
	for i := 0; i+1 < len(extra); i += 2 {
		parts = append(parts, fmt.Sprintf("%s=%q", extra[i], extra[i+1]))
	}
	if len(parts) == 0 {
		return name
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format (version 0.0.4), families sorted by name and series by
// label set, so output is reproducible. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshot() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch f.typ {
			case typeCounter:
				fmt.Fprintf(bw, "%s %d\n", seriesName(f.name, s.key), s.c.Value())
			case typeGauge:
				fmt.Fprintf(bw, "%s %s\n", seriesName(f.name, s.key), formatFloat(s.g.Value()))
			case typeHistogram:
				counts := s.h.BucketCounts()
				bounds := s.h.Bounds()
				var cum uint64
				for i, b := range bounds {
					cum += counts[i]
					fmt.Fprintf(bw, "%s %d\n",
						seriesName(f.name+"_bucket", s.key, "le", formatFloat(b)), cum)
				}
				cum += counts[len(counts)-1]
				fmt.Fprintf(bw, "%s %d\n", seriesName(f.name+"_bucket", s.key, "le", "+Inf"), cum)
				fmt.Fprintf(bw, "%s %s\n", seriesName(f.name+"_sum", s.key), formatFloat(s.h.Sum()))
				fmt.Fprintf(bw, "%s %d\n", seriesName(f.name+"_count", s.key), s.h.Count())
			}
		}
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format. Usable on a nil registry (serves an empty exposition).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// BucketSnapshot is one cumulative histogram bucket in a Summary.
type BucketSnapshot struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"` // cumulative
}

// HistogramSnapshot is a histogram's state in a Summary.
type HistogramSnapshot struct {
	Count   uint64           `json:"count"`
	Sum     float64          `json:"sum"`
	Mean    float64          `json:"mean"`
	P50     float64          `json:"p50"`
	P90     float64          `json:"p90"`
	P99     float64          `json:"p99"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// MetricSnapshot is one series in a Summary.
type MetricSnapshot struct {
	Name      string             `json:"name"`
	Type      string             `json:"type"`
	Labels    map[string]string  `json:"labels,omitempty"`
	Value     *float64           `json:"value,omitempty"` // counter / gauge
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// Summary is the machine-readable end-of-run telemetry artifact.
type Summary struct {
	Metrics []MetricSnapshot `json:"metrics"`
	Extra   map[string]any   `json:"extra,omitempty"`
}

// Snapshot captures every registered series. Returns nil on a nil registry.
func (r *Registry) Snapshot() []MetricSnapshot {
	var out []MetricSnapshot
	for _, f := range r.snapshot() {
		for _, s := range f.series {
			m := MetricSnapshot{Name: f.name, Type: f.typ.String()}
			if len(s.labels) > 0 {
				m.Labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					m.Labels[l.Key] = l.Value
				}
			}
			switch f.typ {
			case typeCounter:
				v := float64(s.c.Value())
				m.Value = &v
			case typeGauge:
				v := s.g.Value()
				m.Value = &v
			case typeHistogram:
				h := &HistogramSnapshot{
					Count: s.h.Count(),
					Sum:   s.h.Sum(),
					Mean:  s.h.Mean(),
					P50:   s.h.Quantile(0.5),
					P90:   s.h.Quantile(0.9),
					P99:   s.h.Quantile(0.99),
				}
				counts := s.h.BucketCounts()
				var cum uint64
				for i, b := range s.h.Bounds() {
					cum += counts[i]
					h.Buckets = append(h.Buckets, BucketSnapshot{UpperBound: b, Count: cum})
				}
				cum += counts[len(counts)-1]
				h.Buckets = append(h.Buckets, BucketSnapshot{UpperBound: math.Inf(1), Count: cum})
				m.Histogram = h
			}
			out = append(out, m)
		}
	}
	return out
}

// MarshalJSON renders the +Inf upper bound as the string "+Inf" (JSON has no
// infinity literal).
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	le := any(b.UpperBound)
	if math.IsInf(b.UpperBound, 1) {
		le = "+Inf"
	}
	return json.Marshal(map[string]any{"le": le, "count": b.Count})
}
