package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenRegistry builds the fixed registry the exposition golden file
// describes.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Help("mvml_test_requests_total", "Total test requests.")
	r.Counter("mvml_test_requests_total", "code", "200").Add(3)
	r.Counter("mvml_test_requests_total", "code", "500").Inc()
	r.Gauge("mvml_test_queue_depth").Set(2.5)
	h := r.Histogram("mvml_test_latency_seconds", []float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.2, 0.75, 3} {
		h.Observe(v)
	}
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Fatalf("exposition drifted from golden file (run with UPDATE_GOLDEN=1 to refresh)\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	rec := httptest.NewRecorder()
	goldenRegistry().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `mvml_test_requests_total{code="200"} 3`) {
		t.Fatalf("body missing counter:\n%s", rec.Body.String())
	}
	// A nil registry still serves an empty, well-formed exposition.
	rec = httptest.NewRecorder()
	var nilReg *Registry
	nilReg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || rec.Body.Len() != 0 {
		t.Fatalf("nil registry: code %d body %q", rec.Code, rec.Body.String())
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		0.25:         "0.25",
		4:            "4",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatFloat(math.NaN()); got != "NaN" {
		t.Errorf("formatFloat(NaN) = %q", got)
	}
}

func TestSummaryJSON(t *testing.T) {
	reg := goldenRegistry()
	s := Summary{Metrics: reg.Snapshot(), Extra: map[string]any{"command": "test"}}

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Metrics []struct {
			Name      string            `json:"name"`
			Type      string            `json:"type"`
			Labels    map[string]string `json:"labels"`
			Value     *float64          `json:"value"`
			Histogram *struct {
				Count   uint64  `json:"count"`
				Sum     float64 `json:"sum"`
				Mean    float64 `json:"mean"`
				P50     float64 `json:"p50"`
				Buckets []struct {
					Le    any    `json:"le"`
					Count uint64 `json:"count"`
				} `json:"buckets"`
			} `json:"histogram"`
		} `json:"metrics"`
		Extra map[string]any `json:"extra"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("summary is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded.Metrics) != 4 {
		t.Fatalf("%d metric snapshots, want 4", len(decoded.Metrics))
	}
	if decoded.Extra["command"] != "test" {
		t.Fatalf("extra %+v", decoded.Extra)
	}
	var sawHist bool
	for _, m := range decoded.Metrics {
		if m.Type != "histogram" {
			continue
		}
		sawHist = true
		h := m.Histogram
		if h == nil || h.Count != 4 || math.Abs(h.Sum-4) > 1e-12 || math.Abs(h.Mean-1) > 1e-12 {
			t.Fatalf("histogram snapshot %+v", h)
		}
		// Buckets are cumulative and end with the string-encoded +Inf bound.
		last := h.Buckets[len(h.Buckets)-1]
		if last.Le != "+Inf" || last.Count != 4 {
			t.Fatalf("+Inf bucket %+v", last)
		}
		if h.P50 <= 0 {
			t.Fatalf("p50 %v", h.P50)
		}
	}
	if !sawHist {
		t.Fatal("no histogram in summary")
	}
	// A nil registry still yields an encodable summary.
	var nilReg *Registry
	if err := json.NewEncoder(&buf).Encode(Summary{Metrics: nilReg.Snapshot()}); err != nil {
		t.Fatal(err)
	}
}
