package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
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

// TestHealthEngineSeesReactiveRejuvenation: with the engine enabled, the
// pool's reactive trigger drains the compromised version and restores full
// agreement, and the engine shows the decision as that version's
// critical → healthy arc.
func TestHealthEngineSeesReactiveRejuvenation(t *testing.T) {
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
			t.Fatalf("request failed during reactive rejuvenation: %v", res.Err)
		}
		return reactive.Value() > 0
	})
	if !fired {
		t.Fatalf("reactive trigger never fired (divergence %v)", s.pools[1].divergenceRate())
	}
	if !classifyUntil(t, s, 200, func(res Result) bool { return res.Agreeing == 3 }) {
		t.Fatal("version still diverging after reactive rejuvenation")
	}
	var arc []string
	for _, tr := range s.Health().Report().Timeline {
		if tr.Component == "version:tiny-1" {
			arc = append(arc, tr.To.String())
		}
	}
	if len(arc) < 2 || arc[0] != "critical" || arc[1] != "healthy" {
		t.Fatalf("version:tiny-1 transitions %v, want critical then healthy", arc)
	}
}

// reactiveRun is what one server did over reactiveCycles: every answer, and
// the decided round after which each reactive rejuvenation fired, with the
// version it drained.
type reactiveRun struct {
	answers []Result
	fired   []string
}

// reactiveCycles compromises version 1, serves until the reactive trigger
// has rejuvenated it, serves clean rounds past the trigger's cooldown, and
// does it all again — two cycles well under five seconds apart. One request
// per batch through an unbuffered gate makes every round deterministic: the
// gate send returns only once the batcher is back at the gate, so the last
// round's vote and trigger decision are done, and a rejuvenation it started
// is waited for before the next request is admitted.
func reactiveCycles(t *testing.T, rt *obs.Runtime, h *health.Options) reactiveRun {
	cfg := testConfig()
	cfg.DivergenceWindow = 4
	cfg.Health = h
	gate := make(chan struct{})
	cfg.batchGate = gate
	s := newTestServer(t, cfg, rt)
	var run reactiveRun
	round := 0
	serve := func() {
		gate <- struct{}{}
		for s.reacting.Load() {
			time.Sleep(100 * time.Microsecond)
		}
		for _, p := range s.pools {
			p.mu.Lock()
			reset := p.ring.fill == 0 // only a rejuvenation empties a window
			p.mu.Unlock()
			if reset && round > 0 {
				run.fired = append(run.fired, fmt.Sprintf("%s after round %d", p.name, round))
			}
		}
		res, err := s.Classify(testImage(round))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		run.answers = append(run.answers, res)
		round++
	}
	for cycle := 0; cycle < 2; cycle++ {
		if err := s.Compromise(1); err != nil {
			t.Fatal(err)
		}
		for n := len(run.fired); len(run.fired) == n && round < 200*(cycle+1); {
			serve()
		}
		for i := 0; i < cooldownWindows*cfg.DivergenceWindow+8; i++ {
			serve()
		}
	}
	return run
}

// TestReactiveTriggerIndependentOfTelemetry: the pool alone decides that a
// version is diverging, so a bare server, an instrumented one and one with
// the health engine attached give the same answers and rejuvenate the same
// version after the same decided rounds — including a second compromise
// soon after the first rejuvenation.
func TestReactiveTriggerIndependentOfTelemetry(t *testing.T) {
	bare := reactiveCycles(t, nil, nil)
	if len(bare.fired) != 2 {
		t.Fatalf("bare server: reactive rejuvenations %v, want one per cycle", bare.fired)
	}
	for _, tc := range []struct {
		name string
		run  reactiveRun
	}{
		{"runtime", reactiveCycles(t, obs.NewRuntime(256), nil)},
		{"runtime+health", reactiveCycles(t, obs.NewRuntime(256), &health.Options{})},
	} {
		if fmt.Sprint(tc.run.fired) != fmt.Sprint(bare.fired) {
			t.Errorf("%s: rejuvenations %v, bare server %v", tc.name, tc.run.fired, bare.fired)
		}
		if fmt.Sprint(tc.run.answers) != fmt.Sprint(bare.answers) {
			t.Errorf("%s: answers differ from the bare server's", tc.name)
		}
	}
}

// TestServerHealthEqualsReplayOfItsExport: the engine a server runs live and
// `health.Replay` over that server's span export judge the same stream, in
// the same order, with the same constants, so they reach the same verdict,
// incident windows, SLO statuses and transition timeline through one
// compromise and its reactive rejuvenation.
func TestServerHealthEqualsReplayOfItsExport(t *testing.T) {
	rt := obs.NewRuntime(0)
	var export bytes.Buffer
	rt.Spans().SetWriter(&export)
	cfg := healthTestConfig()
	cfg.DivergenceWindow = 8
	cfg.DivergenceThreshold = 0.5
	s := newTestServer(t, cfg, rt)
	if err := s.Compromise(1); err != nil {
		t.Fatal(err)
	}
	reactive := rt.Metrics().Counter("mvserve_rejuvenations_total", "kind", RejuvReactive)
	if !classifyUntil(t, s, 500, func(Result) bool { return reactive.Value() > 0 }) {
		t.Fatalf("reactive trigger never fired (divergence %v)", s.pools[1].divergenceRate())
	}
	if !classifyUntil(t, s, 200, func(res Result) bool { return res.Agreeing == 3 }) {
		t.Fatal("version still diverging after reactive rejuvenation")
	}
	recs := closeAndRead(t, rt, &export, s)

	live := s.Health().Report()
	if live.Spans != uint64(len(recs)) {
		t.Fatalf("live engine saw %d spans, export holds %d", live.Spans, len(recs))
	}
	requireLiveEqualsReplay(t, live, health.Replay(recs, health.DefaultOptions()))
	if len(live.Rejuvenations) == 0 {
		t.Fatal("live engine saw no rejuvenation")
	}
}

// TestShardedHealthEqualsReplayUnderConcurrency: two labelled servers share
// one runtime and its export while eight clients drive both at once and
// shard-a's version 1 is compromised partway through. Each server's live
// engine must equal the replay of the shared export filtered to its shard,
// timeline included: the sink hands batches to its observers in the order it
// writes them, and the replay reads that order back.
func TestShardedHealthEqualsReplayUnderConcurrency(t *testing.T) {
	rt := obs.NewRuntime(0)
	var export bytes.Buffer
	rt.Spans().SetWriter(&export)
	labels := []string{"shard-a", "shard-b"}
	var servers []*Server
	for _, label := range labels {
		cfg := healthTestConfig()
		cfg.DivergenceWindow = 8
		cfg.ShardLabel = label
		servers = append(servers, newTestServer(t, cfg, rt))
	}

	const clients, perClient, compromiseAt = 8, 150, 40
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if c == 0 && i == compromiseAt {
					if err := servers[0].Compromise(1); err != nil {
						errs <- err
						return
					}
				}
				if _, err := servers[(c+i)%2].Classify(testImage(c*perClient + i)); err != nil {
					errs <- fmt.Errorf("client %d request %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	recs := closeAndRead(t, rt, &export, servers...)
	// Nothing publishes once Close has returned: a drain the rejuvenation
	// loop had started is part of the export, not a late straggler.
	time.Sleep(20 * time.Millisecond)
	if n := rt.Spans().Published(); n != uint64(len(recs)) {
		t.Fatalf("sink published %d spans, export closed with %d", n, len(recs))
	}

	critical := false
	for _, tr := range servers[0].Health().Report().Timeline {
		critical = critical || (tr.Component == "version:tiny-1" && tr.To == health.Critical)
	}
	if !critical {
		t.Fatal("shard-a's engine never judged the compromised version critical")
	}
	for i, s := range servers {
		live := s.Health().Report()
		t.Run(labels[i], func(t *testing.T) {
			requireLiveEqualsReplay(t, live, health.Replay(recs, health.Options{ShardFilter: labels[i]}))
		})
	}
}

// closeAndRead closes the servers and returns the flushed export. Close waits
// for the batcher, which publishes a request's trace after its reply, and for
// the rejuvenation loop, so a drain under way publishes before Close returns.
func closeAndRead(t *testing.T, rt *obs.Runtime, export *bytes.Buffer, servers ...*Server) []obs.SpanRecord {
	t.Helper()
	for _, s := range servers {
		s.Close()
	}
	if err := rt.Spans().Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadSpans(export)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// requireLiveEqualsReplay compares a live engine's report with the replay of
// its export: spans seen, final verdict, incident windows, SLO statuses and
// the exact transition timeline.
func requireLiveEqualsReplay(t *testing.T, live, replay *health.Report) {
	t.Helper()
	if live.Spans != replay.Spans {
		t.Errorf("spans: live %d, replay %d", live.Spans, replay.Spans)
	}
	if live.Final.Overall != replay.Final.Overall {
		t.Errorf("final verdict: live %s, replay %s", live.Final.Overall, replay.Final.Overall)
	}
	if !reflect.DeepEqual(live.Incidents, replay.Incidents) {
		t.Errorf("incident windows: live %+v, replay %+v", live.Incidents, replay.Incidents)
	}
	if !reflect.DeepEqual(live.Final.SLOs, replay.Final.SLOs) {
		t.Errorf("SLO statuses: live %+v, replay %+v", live.Final.SLOs, replay.Final.SLOs)
	}
	if !reflect.DeepEqual(live.Timeline, replay.Timeline) {
		t.Errorf("timeline: live\n%+v\nreplay\n%+v", live.Timeline, replay.Timeline)
	}
}
