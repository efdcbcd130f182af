// The runtime's end-to-end tests: flags → Runtime → endpoint and artifacts,
// driven through the flag struct every binary uses.
package telemetry_test

import (
	"context"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mvml/internal/obs"
	"mvml/internal/telemetry"
)

func TestCLIDisabledIsNoOp(t *testing.T) {
	var c telemetry.Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.RegisterFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Enabled() {
		t.Fatal("no flags set but Enabled")
	}
	rt, err := c.Start()
	if err != nil || rt != nil {
		t.Fatalf("disabled Start = (%v, %v), want (nil, nil)", rt, err)
	}
	if err := c.Finish(nil); err != nil {
		t.Fatalf("disabled Finish: %v", err)
	}
}

func TestCLIStartFinishArtifacts(t *testing.T) {
	dir := t.TempDir()
	var c telemetry.Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.RegisterFlags(fs)
	args := []string{
		"-metrics-addr", "127.0.0.1:0",
		"-telemetry-out", filepath.Join(dir, "summary.json"),
		"-spans-out", filepath.Join(dir, "spans.jsonl"),
		"-trace-capacity", "4",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	rt, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	if rt == nil || rt.Metrics() == nil || rt.Spans() == nil {
		t.Fatal("enabled Start must return a live runtime")
	}
	rt.Metrics().Counter("mvml_clitest_total").Inc()
	rt.Spans().Emit(rt.Spans().NewTraceID(), 0, "clitest", 1, 1, nil)

	// The live endpoint serves the counter while the run is in flight.
	addr := c.ListenAddr()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "mvml_clitest_total 1") {
		t.Fatalf("live exposition missing counter:\n%s", body)
	}

	if err := c.Finish(map[string]any{"command": "clitest"}); err != nil {
		t.Fatal(err)
	}
	sum, err := os.ReadFile(filepath.Join(dir, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sum), `"mvml_clitest_total"`) || !strings.Contains(string(sum), `"clitest"`) {
		t.Fatalf("summary content:\n%s", sum)
	}
	trace, err := os.ReadFile(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), `"kind":"clitest"`) {
		t.Fatalf("span export content:\n%s", trace)
	}
	// The endpoint is torn down after Finish.
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("metrics endpoint still up after Finish")
	}
}

// TestFinishReleasesMetricsPort proves the graceful shutdown gives the port
// back: after Finish, binding the exact same address must succeed.
func TestFinishReleasesMetricsPort(t *testing.T) {
	var c telemetry.Flags
	c.MetricsAddr = "127.0.0.1:0"
	c.SummaryPath = filepath.Join(t.TempDir(), "s.json")
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	addr := c.ListenAddr()
	if addr == "" {
		t.Fatal("no listen address while endpoint is up")
	}
	if err := c.Finish(nil); err != nil {
		t.Fatal(err)
	}
	requirePortReleased(t, &c, addr)
}

// requirePortReleased asserts the metrics endpoint is gone and binding the
// exact same address succeeds again.
func requirePortReleased(t *testing.T, c *telemetry.Flags, addr string) {
	t.Helper()
	if got := c.ListenAddr(); got != "" {
		t.Fatalf("ListenAddr after Finish = %q, want empty", got)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port %s not released after Finish: %v", addr, err)
	}
	ln.Close()
}

// TestFinishAttemptsEveryArtifact: an unwritable artifact must not abandon
// the rest of Finish — the other artifacts are still written, the endpoint is
// still shut down (port released), and the first error is what comes back.
func TestFinishAttemptsEveryArtifact(t *testing.T) {
	dir := t.TempDir()
	c := telemetry.Flags{
		MetricsAddr:  "127.0.0.1:0",
		HealthReport: filepath.Join(dir, "no-such-dir", "health.json"),
		SummaryPath:  filepath.Join(dir, "no-such-dir", "s.json"),
		SpansPath:    filepath.Join(dir, "spans.jsonl"),
	}
	rt, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	c.AttachEngine()
	rt.Spans().Emit(rt.Spans().NewTraceID(), 0, "clitest", 1, 1, nil)
	addr := c.ListenAddr()
	err = c.Finish(nil)
	if err == nil || !strings.Contains(err.Error(), "health report") {
		t.Fatalf("Finish = %v, want the first failure (the health report)", err)
	}
	requirePortReleased(t, &c, addr)
	if fi, err := os.Stat(filepath.Join(dir, "spans.jsonl")); err != nil || fi.Size() == 0 {
		t.Errorf("spans.jsonl not written after an earlier artifact failed: %v", err)
	}
}

// TestShutdownIdempotent: Shutdown on a CLI that never started an endpoint,
// and a second Shutdown after a successful one, are both no-ops.
func TestShutdownIdempotent(t *testing.T) {
	var c telemetry.Flags
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown without endpoint: %v", err)
	}
	c.MetricsAddr = "127.0.0.1:0"
	c.SummaryPath = filepath.Join(t.TempDir(), "s.json")
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if err := c.Finish(nil); err != nil {
		t.Fatalf("finish after shutdown: %v", err)
	}
}

func TestCLISummaryPathDefaults(t *testing.T) {
	var c telemetry.Flags
	c.MetricsAddr = "127.0.0.1:0"
	rt, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	if rt == nil {
		t.Fatal("nil runtime")
	}
	if c.SummaryPath != telemetry.DefaultSummaryPath {
		t.Fatalf("summary path %q, want default %q", c.SummaryPath, telemetry.DefaultSummaryPath)
	}
	// Redirect the default into a temp dir before Finish writes it.
	c.SummaryPath = filepath.Join(t.TempDir(), "s.json")
	if err := c.Finish(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(c.SummaryPath); err != nil {
		t.Fatal(err)
	}
}

func TestCLISpansIncidentsAndDebugEndpoints(t *testing.T) {
	dir := t.TempDir()
	c := &telemetry.Flags{
		MetricsAddr: "127.0.0.1:0",
		SummaryPath: filepath.Join(dir, "s.json"),
		SpansPath:   filepath.Join(dir, "spans.jsonl"),
		IncidentDir: filepath.Join(dir, "incidents"),
		Pprof:       true,
	}
	c.InfoLabel("workers", "3x2")
	rt, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Spans() == nil || rt.Flight() == nil {
		t.Fatal("runtime missing span sink or flight recorder")
	}

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + c.ListenAddr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, `mv_build_info{binary=`) ||
		!strings.Contains(body, `workers="3x2"`) {
		t.Fatalf("/metrics = %d, build info missing:\n%s", code, body)
	}
	if code, body := get("/"); code != http.StatusOK || !strings.Contains(body, "/debug/pprof/") {
		t.Fatalf("/ index = %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	if code, _ := get("/no-such-page"); code != http.StatusNotFound {
		t.Fatalf("unknown path = %d, want 404", code)
	}

	sp := rt.Spans().StartTrace("request")
	sp.Child("vote").End()
	sp.End()
	rt.Flight().Trigger("compromise", map[string]any{"version": "a"})
	if err := c.Finish(nil); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(c.SpansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("span export holds %d records, want 2", len(recs))
	}
	incidents, err := filepath.Glob(filepath.Join(c.IncidentDir, "incident-*.json"))
	if err != nil || len(incidents) != 1 {
		t.Fatalf("incident files = %v (%v), want exactly one", incidents, err)
	}
}

func TestCLIPprofOffByDefault(t *testing.T) {
	c := &telemetry.Flags{MetricsAddr: "127.0.0.1:0", SummaryPath: filepath.Join(t.TempDir(), "s.json")}
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + c.ListenAddr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ without -pprof = %d, want 404", resp.StatusCode)
	}
	if err := c.Finish(nil); err != nil {
		t.Fatal(err)
	}
}
