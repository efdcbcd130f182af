package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mvml/internal/health"
	"mvml/internal/obs"
)

// healthTestConfig enables the health engine on the standard test config.
func healthTestConfig() Config {
	cfg := testConfig()
	cfg.Health = &health.Options{}
	return cfg
}

// TestResponsesUnchangedByHealthEngine extends the repo's determinism
// guarantee to the health engine: it subscribes to the span firehose and
// judges, but never touches the serving path, so the same request sequence
// against a health-enabled instrumented server and a bare one yields
// identical answers.
func TestResponsesUnchangedByHealthEngine(t *testing.T) {
	rt := obs.NewRuntime(256)
	bare := newTestServer(t, testConfig(), nil)
	withHealth := newTestServer(t, healthTestConfig(), rt)
	if withHealth.Health() == nil {
		t.Fatal("health engine not constructed despite Health options + span sink")
	}

	const n = 24
	for i := 0; i < n; i++ {
		img := testImage(i)
		a, errA := bare.Classify(img)
		b, errB := withHealth.Classify(img)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("request %d: error mismatch %v vs %v", i, errA, errB)
		}
		if a.Class != b.Class || a.Degraded != b.Degraded ||
			a.Agreeing != b.Agreeing || a.Proposals != b.Proposals {
			t.Fatalf("request %d: health-engine answer differs: %+v vs %+v", i, a, b)
		}
	}

	// finish replies before it ends the request span (telemetry stays off
	// the latency path), so the last round may be published a moment after
	// its answer arrived: wait for it, bounded.
	v := withHealth.Health().Snapshot()
	for deadline := time.Now().Add(5 * time.Second); v.Rounds < n && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		v = withHealth.Health().Snapshot()
	}
	// The engine observed the traffic and judged the ensemble clean. (Not
	// asserted: the overall rollup — stage-latency EWMAs see real wall-clock
	// durations, and on a noisy machine a jitter anomaly may legitimately
	// mark a stage degraded without saying anything about the ensemble.)
	if v.Spans == 0 || v.Rounds != n {
		t.Fatalf("engine saw %d spans / %d rounds, want >0 / %d", v.Spans, v.Rounds, n)
	}
	for _, c := range v.Components {
		if strings.HasPrefix(c.Name, "version:") && c.Level != health.Healthy {
			t.Fatalf("identical-ensemble version judged %s: %+v", c.Level, c)
		}
	}
	for _, s := range v.SLOs {
		if s.Objective.Name != "latency" && s.BudgetRemaining != 1 {
			t.Fatalf("SLO %s budget %v on clean traffic, want 1", s.Objective.Name, s.BudgetRemaining)
		}
	}

	// mv_health_* series are present in the exposition.
	var b strings.Builder
	if err := rt.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mv_health_state", "mv_health_budget_remaining", "mv_health_burn_rate",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %s:\n%s", want, b.String())
		}
	}
}

// TestHealthRequiresSpanSink: health options without a telemetry runtime
// are a no-op, not an error (the engine has nothing to observe).
func TestHealthRequiresSpanSink(t *testing.T) {
	s := newTestServer(t, healthTestConfig(), nil)
	if s.Health() != nil {
		t.Fatal("engine constructed without a span sink")
	}
	if res, err := s.Classify(testImage(0)); err != nil || res.Proposals != 3 {
		t.Fatalf("serving broken without engine: res=%+v err=%v", res, err)
	}
}

// TestHealthzReportsEngineVerdict: /healthz carries the engine's verdict
// and adopts its overall level as the endpoint status.
func TestHealthzReportsEngineVerdict(t *testing.T) {
	rt := obs.NewRuntime(256)
	s := newTestServer(t, healthTestConfig(), rt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < 8; i++ {
		if _, err := s.Classify(testImage(i)); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	hr := decode[healthResponse](t, resp)
	if hr.Health == nil {
		t.Fatal("/healthz missing the health verdict")
	}
	if hr.Status != hr.Health.Overall.String() {
		t.Fatalf("endpoint status %q does not mirror the verdict %q", hr.Status, hr.Health.Overall)
	}
	if len(hr.Health.SLOs) != 3 {
		t.Fatalf("%d SLOs in verdict, want 3", len(hr.Health.SLOs))
	}
	names := map[string]bool{}
	for _, c := range hr.Health.Components {
		names[c.Name] = true
	}
	for _, want := range []string{"overall", "version:tiny-0", "version:tiny-1", "version:tiny-2"} {
		if !names[want] {
			t.Fatalf("verdict missing component %q: %v", want, names)
		}
	}
}

// TestHealthEngineGatesReactiveRejuvenation: with the engine enabled, the
// reactive trigger fires on the engine's verdict (version component
// critical), drains the compromised version and restores full agreement.
func TestHealthEngineGatesReactiveRejuvenation(t *testing.T) {
	rt := obs.NewRuntime(256)
	cfg := healthTestConfig()
	cfg.DivergenceWindow = 8
	cfg.DivergenceThreshold = 0.5
	s := newTestServer(t, cfg, rt)
	if err := s.Compromise(1); err != nil {
		t.Fatal(err)
	}
	reactive := rt.Metrics().Counter("mvserve_rejuvenations_total", "kind", RejuvReactive)
	fired := classifyUntil(t, s, 500, func(res Result) bool {
		if res.Err != nil {
			t.Fatalf("request failed during engine-gated rejuvenation: %v", res.Err)
		}
		return reactive.Value() > 0
	})
	if !fired {
		t.Fatalf("engine verdict never triggered rejuvenation (snapshot: %+v)", s.Health().Snapshot())
	}
	if !classifyUntil(t, s, 200, func(res Result) bool { return res.Agreeing == 3 }) {
		t.Fatal("version still diverging after engine-gated rejuvenation")
	}
}
