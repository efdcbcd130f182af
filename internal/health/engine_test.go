package health

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mvml/internal/obs"
)

// streamBuilder assembles a synthetic serving span stream: per round one
// batch span (carrying queue_depth), one vote span (voters/diverged or
// skipped) and one request span — the same shapes internal/serve emits.
type streamBuilder struct {
	recs []obs.SpanRecord
	id   uint64
}

func (b *streamBuilder) span(kind string, start, end float64, attrs map[string]any) {
	b.id++
	b.recs = append(b.recs, obs.SpanRecord{
		Trace: b.id, ID: b.id, Kind: kind, Start: start, End: end, Attrs: attrs,
	})
}

// round emits one voting round at time t. diverged lists dissenting
// versions; skipped marks a no-majority round; degraded marks the request
// answer degraded.
func (b *streamBuilder) round(t float64, queueDepth int, diverged []string, skipped, degraded bool) {
	b.span("batch", t, t+0.002, map[string]any{
		"batch_size": 1, "queue_depth": queueDepth,
	})
	vattrs := map[string]any{
		"voters": []string{"a", "b", "c"},
	}
	if skipped {
		vattrs["skipped"] = true
	} else if len(diverged) > 0 {
		vattrs["diverged"] = diverged
	}
	b.span("vote", t+0.002, t+0.003, vattrs)
	rattrs := map[string]any{}
	if degraded {
		rattrs["degraded"] = true
	}
	b.span("request", t, t+0.005, rattrs)
}

// rejuvenation emits a rejuvenation span; the short duration keeps builder
// order identical to end-time order, which live feeding relies on below.
func (b *streamBuilder) rejuvenation(t float64, version, kind string) {
	b.span("rejuvenation", t, t+0.01, map[string]any{"version": version, "kind": kind})
}

// trigger emits the serving pool's zero-duration reactive-trigger span.
func (b *streamBuilder) trigger(t float64, version string, rate float64) {
	b.span("rejuvenation_trigger", t, t, map[string]any{"version": version, "rate": rate})
}

// testEngineOptions uses SLO windows short enough that the synthetic
// incident both alerts and fully recovers within the stream.
func testEngineOptions() Options {
	opts := DefaultOptions()
	opts.objectives = DefaultObjectives()
	for i := range opts.objectives {
		opts.objectives[i].Window = 10
		opts.objectives[i].ShortWindow = 1
		opts.objectives[i].LongWindow = 3
	}
	return opts
}

// incidentStream builds the canonical test scenario: a clean baseline,
// a mid-stream compromise of version "a" (persistent divergence, queue
// surge, degraded answers, two coincident-failure skips), the serving pool's
// reactive trigger once a 32-round window is half disagreement, the
// rejuvenation, and a clean recovery phase. Rounds are 0.1s apart.
func incidentStream() []obs.SpanRecord {
	var b streamBuilder
	const dt = 0.1
	for i := 0; i < 100; i++ { // healthy baseline, t ∈ [0,10)
		var div []string
		if i == 50 {
			div = []string{"b"} // one transient dissent, far below the trigger
		}
		b.round(float64(i)*dt, 2, div, false, false)
	}
	for i := 100; i < 200; i++ { // compromise, t ∈ [10,20)
		skipped := i == 140 || i == 141 // two no-majority rounds
		b.round(float64(i)*dt, 50, []string{"a"}, skipped, true)
		if i == 115 {
			b.trigger(float64(i)*dt+0.003, "a", 0.5)
		}
	}
	b.rejuvenation(199.5*dt, "a", "reactive")
	for i := 200; i < 300; i++ { // recovery, t ∈ [20,30)
		b.round(float64(i)*dt, 2, nil, false, false)
	}
	return b.recs
}

func reportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return string(buf)
}

// TestReplayDeterministic: the same stream replayed twice yields a
// byte-identical report — the engine has no hidden wall-clock or map-order
// dependence.
func TestReplayDeterministic(t *testing.T) {
	recs := incidentStream()
	opts := testEngineOptions()
	a := reportJSON(t, Replay(recs, opts))
	for i := 0; i < 5; i++ {
		if b := reportJSON(t, Replay(recs, opts)); a != b {
			t.Fatalf("replay %d differs from the first:\n%s\nvs\n%s", i, a, b)
		}
	}
}

// TestLiveMatchesReplay: an engine fed live (record-at-a-time, and in odd
// batch sizes) produces the exact report of the offline replay — the
// determinism contract `mvtrace health` relies on.
func TestLiveMatchesReplay(t *testing.T) {
	recs := incidentStream()
	opts := testEngineOptions()
	want := reportJSON(t, Replay(recs, opts))

	for _, chunk := range []int{1, 7, 64, len(recs)} {
		live := NewEngine(opts, nil)
		live.trackAlphaTrajectory(64)
		for lo := 0; lo < len(recs); lo += chunk {
			hi := lo + chunk
			if hi > len(recs) {
				hi = len(recs)
			}
			live.ObserveSpans(recs[lo:hi], 0)
		}
		if got := reportJSON(t, live.Report()); got != want {
			t.Fatalf("live engine (chunk %d) diverged from replay:\n%s\nvs\n%s", chunk, got, want)
		}
	}
}

// TestEngineIncidentArc: the synthetic compromise is detected, attributed,
// and resolved — incident window, version-critical verdict, queue
// change-points, SLO burn alert, finite α, and a final healthy rollup.
func TestEngineIncidentArc(t *testing.T) {
	rep := Replay(incidentStream(), testEngineOptions())

	if rep.Final.Overall != Healthy {
		t.Fatalf("final verdict %s, want healthy (components: %s)", rep.Final.Overall, reportJSON(t, rep))
	}
	if len(rep.Incidents) != 1 {
		t.Fatalf("got %d incident windows, want 1", len(rep.Incidents))
	}
	inc := rep.Incidents[0]
	if !inc.Resolved || inc.Peak != Critical {
		t.Fatalf("incident %+v, want resolved with critical peak", inc)
	}
	if inc.Start < 10 || inc.Start > 20 {
		t.Fatalf("incident starts at %.2fs, want within the compromise phase", inc.Start)
	}

	// The compromised version went critical and was reset by rejuvenation.
	var wentCritical, cameBack bool
	for _, tr := range rep.Timeline {
		if tr.Component == "version:a" && tr.To == Critical {
			wentCritical = true
		}
		if tr.Component == "version:a" && wentCritical && tr.To == Healthy {
			cameBack = true
			if !strings.Contains(tr.Reason, "rejuvenated") {
				t.Fatalf("version:a recovery reason %q, want rejuvenation", tr.Reason)
			}
		}
	}
	if !wentCritical || !cameBack {
		t.Fatalf("version:a arc critical=%v healthy=%v, want both", wentCritical, cameBack)
	}

	// Queue surge and return each produce a change-point.
	if len(rep.ChangePoints) < 2 {
		t.Fatalf("got %d change-points, want >= 2 (surge + return)", len(rep.ChangePoints))
	}
	if len(rep.Rejuvenations) != 1 || rep.Rejuvenations[0].Version != "a" {
		t.Fatalf("rejuvenations %+v, want one for version a", rep.Rejuvenations)
	}

	// The quality SLO alerted during the compromise.
	var quality *SLOStatus
	for i := range rep.Final.SLOs {
		if rep.Final.SLOs[i].Objective.Name == "quality" {
			quality = &rep.Final.SLOs[i]
		}
	}
	if quality == nil || quality.Alerts == 0 {
		t.Fatalf("quality SLO never alerted: %+v", quality)
	}
	if quality.Alerting {
		t.Fatal("quality SLO still alerting after recovery")
	}

	// α is measured and finite: the two skip rounds are coincident failures.
	if !rep.AlphaKnown {
		t.Fatal("alpha unmeasured")
	}
	if rep.AlphaFinal <= 0 || rep.AlphaFinal >= 1 {
		t.Fatalf("alpha %v, want in (0,1)", rep.AlphaFinal)
	}
	if len(rep.AlphaTraj) == 0 {
		t.Fatal("alpha trajectory empty")
	}
	if rep.RoundsSkipped != 2 {
		t.Fatalf("rounds skipped %d, want 2", rep.RoundsSkipped)
	}
}

// TestQueueCollapseEscalatesToCritical: repeated queue change-points without
// recovery escalate the queue component to critical.
func TestQueueCollapseEscalatesToCritical(t *testing.T) {
	e := NewEngine(testEngineOptions(), nil)
	var b streamBuilder
	// First change-point at i=40 (2→60); the CUSUM then re-learns its
	// baseline over the next Warmup observations (during which the queue
	// component must NOT recover — learning is not evidence of health), and
	// the second surge (60→300) lands right after, escalating to critical.
	depth := func(i int) int {
		switch {
		case i < 40:
			return 2
		case i < 40+1+warmup:
			return 60
		default:
			return 300
		}
	}
	for i := 0; i < 100; i++ {
		b.round(float64(i)*0.1, depth(i), nil, false, false)
	}
	e.ObserveSpans(b.recs, 0)
	if lvl := componentLevel(e.Snapshot(), "queue"); lvl != Critical {
		t.Fatalf("queue collapse left the queue component %s (components: %s)",
			lvl, reportJSON(t, e.Report()))
	}
}

// componentLevel reads one component's level from a verdict (Healthy when
// the verdict does not list it).
func componentLevel(v *Verdict, name string) Level {
	for _, c := range v.Components {
		if c.Name == name {
			return c.Level
		}
	}
	return Healthy
}

// TestExpositionByteStable extends the repo's byte-stability guarantee to
// the mv_health_* families: with no new observations between scrapes, two
// successive expositions of a registry carrying engine gauges are
// byte-identical, and replaying the same stream into a fresh registry
// reproduces them exactly.
func TestExpositionByteStable(t *testing.T) {
	expose := func() []byte {
		reg := obs.NewRegistry()
		e := NewEngine(testEngineOptions(), reg)
		e.ObserveSpans(incidentStream(), 0)
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := expose()
	for _, want := range []string{
		"mv_health_state", "mv_health_alpha", "mv_health_budget_remaining",
		"mv_health_burn_rate", "mv_health_anomalies_total",
	} {
		if !bytes.Contains(first, []byte(want)) {
			t.Fatalf("exposition missing %s:\n%s", want, first)
		}
	}
	// Same registry, no new observations: scrape twice.
	reg := obs.NewRegistry()
	e := NewEngine(testEngineOptions(), reg)
	e.ObserveSpans(incidentStream(), 0)
	var a, b bytes.Buffer
	if err := reg.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("successive scrapes differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	// Fresh registry + engine over the same stream: byte-identical.
	if again := expose(); !bytes.Equal(first, again) {
		t.Fatalf("replayed exposition differs:\n%s\nvs\n%s", first, again)
	}
}

// TestEngineGauges: the engine publishes its verdict into mv_health_*
// gauges on the shared registry.
func TestEngineGauges(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewEngine(testEngineOptions(), reg)
	var b streamBuilder
	for i := 0; i < 100; i++ {
		b.round(float64(i)*0.1, 2, []string{"a"}, false, false)
	}
	b.trigger(9.903, "a", 1)
	b.recs = append(b.recs, obs.SpanRecord{
		Trace: 9999, ID: 9999, Kind: "vote", Start: 10, End: 10.001,
		Attrs: map[string]any{"skipped": true, "voters": []string{"a", "b"}},
	})
	e.ObserveSpans(b.recs, 0)

	if got := reg.Gauge("mv_health_state", "component", "version:a").Value(); got != float64(Critical) {
		t.Fatalf("mv_health_state{version:a} = %v, want %v", got, float64(Critical))
	}
	if got := reg.Gauge("mv_health_state", "component", "overall").Value(); got != float64(Critical) {
		t.Fatalf("mv_health_state{overall} = %v, want %v", got, float64(Critical))
	}
	wantAlpha, known := e.alpha.Alpha()
	if !known {
		t.Fatal("alpha unmeasured in gauge test")
	}
	if got := reg.Gauge("mv_health_alpha").Value(); got != wantAlpha {
		t.Fatalf("mv_health_alpha = %v, want %v", got, wantAlpha)
	}
	if got := reg.Gauge("mv_health_budget_remaining", "slo", "availability").Value(); got != 1 {
		t.Fatalf("availability budget gauge = %v, want 1 (no failures)", got)
	}
}

// eventKinds are zero-duration instants a span export may hold: serve's
// compromise and rejuvenation_trigger, and kinds no observer knows, as a
// file written outside the program may carry.
var eventKinds = []string{"voter_skip", "rejuvenation_trigger", "compromise",
	"perception_skip", "collision", "run_end", "petri_run_end"}

// TestEventSpansDoNotMoveTheVerdict pins "no kind collision": interleaving
// every event kind through the recorded incident leaves the replayed report
// byte-identical — the engine counts the extra spans and judges none of them.
// rejuvenation_trigger comes without a version, which the engine ignores.
func TestEventSpansDoNotMoveTheVerdict(t *testing.T) {
	recs := incidentStream()
	opts := testEngineOptions()
	want := reportJSON(t, Replay(recs, opts))

	var mixed []obs.SpanRecord
	events := 0
	for i, rec := range recs {
		mixed = append(mixed, rec)
		if i%25 == 0 {
			kind := eventKinds[events%len(eventKinds)]
			events++
			attrs := map[string]any{"version": "a", "reason": "x", "proposals": 0}
			if kind == "rejuvenation_trigger" {
				delete(attrs, "version")
			}
			mixed = append(mixed, obs.SpanRecord{Trace: uint64(1e6 + i), ID: uint64(1e6 + i), Kind: kind,
				Start: rec.End, End: rec.End, Attrs: attrs})
		}
	}
	if events < 2*len(eventKinds) {
		t.Fatalf("only %d events interleaved", events)
	}
	rep := Replay(mixed, opts)
	if rep.Spans != uint64(len(mixed)) {
		t.Fatalf("engine saw %d spans, stream holds %d", rep.Spans, len(mixed))
	}
	rep.Spans -= uint64(events)
	rep.Final.Spans -= uint64(events)
	if got := reportJSON(t, rep); got != want {
		t.Fatalf("event spans moved the report:\n%s\nvs\n%s", got, want)
	}
}

// TestTriggerSpanMarksVersionCritical: the engine watches the serving pool's
// decision rather than computing its own. Disagreement alone moves nothing;
// a rejuvenation_trigger naming a version marks it critical at once, and
// that version's rejuvenation returns it to healthy.
func TestTriggerSpanMarksVersionCritical(t *testing.T) {
	var b streamBuilder
	for i := 0; i < 40; i++ {
		b.round(float64(i)*0.1, 2, []string{"a"}, false, false)
	}
	b.trigger(4.0, "b", 0.5)
	b.rejuvenation(4.1, "b", "reactive")
	e := NewEngine(testEngineOptions(), nil)
	n := len(b.recs)
	e.ObserveSpans(b.recs[:n-2], 0)
	if lvl := componentLevel(e.Snapshot(), "version:a"); lvl != Healthy {
		t.Fatalf("version:a is %s with no trigger, want healthy", lvl)
	}
	e.ObserveSpans(b.recs[n-2:n-1], 0)
	if lvl := componentLevel(e.Snapshot(), "version:b"); lvl != Critical {
		t.Fatalf("version:b is %s after its trigger, want critical", lvl)
	}
	e.ObserveSpans(b.recs[n-1:], 0)
	if lvl := componentLevel(e.Snapshot(), "version:b"); lvl != Healthy {
		t.Fatalf("version:b is %s after its rejuvenation, want healthy", lvl)
	}
	var arc []string
	for _, tr := range e.Report().Timeline {
		if tr.Component == "version:b" {
			arc = append(arc, tr.To.String()+" ("+tr.Reason+")")
		}
	}
	want := "critical (divergence rate 0.50 over window); healthy (rejuvenated (reactive))"
	if got := strings.Join(arc, "; "); got != want {
		t.Fatalf("version:b arc %q, want %q", got, want)
	}
}
