package core

import (
	"bytes"
	"testing"

	"mvml/internal/obs"
	"mvml/internal/xrand"
)

// divergingVersion answers the shared healthy value until compromised, then
// a version-unique wrong one, so any compromised member visibly disagrees.
type divergingVersion struct {
	name        string
	id          int
	compromised bool
}

func (v *divergingVersion) Name() string { return v.name }
func (v *divergingVersion) Infer(int) (int, error) {
	if v.compromised {
		return -1 - v.id, nil
	}
	return 1, nil
}
func (v *divergingVersion) Compromise() error { v.compromised = true; return nil }
func (v *divergingVersion) Restore() error    { v.compromised = false; return nil }

// stepRecord is the decision-relevant outcome of one Infer call.
type stepRecord struct {
	skipped  bool
	value    int
	agreeing int
}

// driveSystem runs a fault-injected system through a fixed inference
// schedule and returns the full decision sequence.
func driveSystem(t *testing.T, sys *System[int, int], steps int) []stepRecord {
	t.Helper()
	out := make([]stepRecord, 0, steps)
	for i := 0; i < steps; i++ {
		d, _, err := sys.Infer(float64(i)*0.25, i)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, stepRecord{skipped: d.Skipped, value: d.Value, agreeing: d.Agreeing})
	}
	return out
}

// TestInstrumentDoesNotAlterDecisions is the determinism regression test:
// a run instrumented with the full observability stack (metrics and spans)
// must produce exactly the decision sequence, stats, and final module states
// of the uninstrumented run with the same seed.
func TestInstrumentDoesNotAlterDecisions(t *testing.T) {
	const steps = 2000
	cfg := CaseStudyConfig()

	build := func() *System[int, int] {
		sys, err := NewSystem[int, int](testVersions(3), NewEqualityVoter[int](), cfg, xrand.New(42))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	plain := build()
	instrumented := build()
	rt := obs.NewRuntime(1024)
	instrumented.InstrumentObs(rt)

	seqA := driveSystem(t, plain, steps)
	seqB := driveSystem(t, instrumented, steps)
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("step %d diverged: plain %+v vs instrumented %+v", i, seqA[i], seqB[i])
		}
	}
	if plain.Stats() != instrumented.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", plain.Stats(), instrumented.Stats())
	}
	for i, m := range plain.Modules() {
		if m.State() != instrumented.Modules()[i].State() {
			t.Fatalf("module %d state diverged: %v vs %v", i, m.State(), instrumented.Modules()[i].State())
		}
	}
}

// TestSystemSpanEmission drives a fault-injected run with a span export
// attached and checks the simulated-clock span stream: module_state
// intervals on every transition (carrying the transition that closed them),
// rejuvenation intervals with drain durations, and zero-length divergence /
// voter_skip / rejuvenation_trigger markers. The export alone is the record
// of every incident: the compromise, the divergence and the reactive
// rejuvenation each have a span of their own in it. Two diverging versions
// make every single compromise a 1v1 split, so the run reliably produces
// divergences.
func TestSystemSpanEmission(t *testing.T) {
	cfg := CaseStudyConfig()
	versions := []Version[int, int]{
		&divergingVersion{name: "a", id: 0},
		&divergingVersion{name: "b", id: 1},
	}
	sys, err := NewSystem[int, int](versions, NewEqualityVoter[int](), cfg, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	rt := obs.NewRuntime(4096)
	var export bytes.Buffer
	rt.Spans().SetWriter(&export)
	sys.InstrumentObs(rt)
	driveSystem(t, sys, 3000)
	st := sys.Stats()
	if st.Compromises == 0 || st.Divergences == 0 || st.ReactiveRejuvenations == 0 {
		t.Fatalf("run too quiet to be meaningful: %+v", st)
	}
	if err := rt.Spans().Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadSpans(&export)
	if err != nil {
		t.Fatal(err)
	}

	trace := uint64(0)
	kinds := map[string]int{}
	incidents := map[string]int{}
	for _, r := range recs {
		kinds[r.Kind]++
		if trace == 0 {
			trace = r.Trace
		} else if r.Trace != trace {
			t.Fatalf("system emitted multiple trace ids: %d and %d", trace, r.Trace)
		}
		switch r.Kind {
		case "module_state":
			if r.Attrs["module"] == nil || r.Attrs["state"] == nil || r.Attrs["to"] == nil {
				t.Fatalf("module_state span missing attrs: %+v", r)
			}
			if (r.AttrString("to") == "R") != (r.AttrString("kind") != "") {
				t.Fatalf("rejuvenation kind must ride exactly the spans closed by a rejuvenation start: %+v", r)
			}
			if r.End < r.Start {
				t.Fatalf("module_state interval inverted: %+v", r)
			}
			if r.AttrString("to") == "C" {
				incidents["compromise"]++
			}
			if r.AttrString("kind") == "reactive" {
				incidents["rejuvenation_reactive"]++
			}
		case "rejuvenation":
			if r.End <= r.Start {
				t.Fatalf("rejuvenation span has no drain duration: %+v", r)
			}
		case "divergence", "voter_skip", "rejuvenation_trigger":
			if r.End != r.Start {
				t.Fatalf("%s marker not zero-length: %+v", r.Kind, r)
			}
			if r.Kind == "divergence" {
				incidents["divergence"]++
			}
		default:
			t.Fatalf("unexpected span kind %q", r.Kind)
		}
	}
	for _, kind := range []string{"module_state", "rejuvenation", "divergence"} {
		if kinds[kind] == 0 {
			t.Fatalf("no %s spans emitted (kinds: %v)", kind, kinds)
		}
	}
	// Every skipped round is exactly one span: a divergence when proposals
	// were live, a voter_skip when none were.
	if kinds["divergence"] != st.Divergences {
		t.Fatalf("%d divergence spans, stats counted %d", kinds["divergence"], st.Divergences)
	}
	if kinds["voter_skip"] != st.Skips-st.Divergences {
		t.Fatalf("%d voter_skip spans, stats counted %d skips with no proposals",
			kinds["voter_skip"], st.Skips-st.Divergences)
	}
	// Every compromise and every reactive rejuvenation is in the export.
	if incidents["compromise"] != st.Compromises {
		t.Fatalf("%d compromise transitions exported, stats counted %d", incidents["compromise"], st.Compromises)
	}
	if incidents["rejuvenation_reactive"] != st.ReactiveRejuvenations {
		t.Fatalf("%d reactive rejuvenation starts exported, stats counted %d",
			incidents["rejuvenation_reactive"], st.ReactiveRejuvenations)
	}
}

// TestTelemetryMirrorsStats checks the registry counters agree with the
// System's own Stats after a long fault-injected run.
func TestTelemetryMirrorsStats(t *testing.T) {
	cfg := CaseStudyConfig()
	sys, err := NewSystem[int, int](testVersions(3), NewEqualityVoter[int](), cfg, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	rt := obs.NewRuntime(64)
	reg := rt.Metrics()
	sys.InstrumentObs(rt)
	driveSystem(t, sys, 3000)
	st := sys.Stats()
	if st.Decisions == 0 || st.Compromises == 0 {
		t.Fatalf("run too quiet to be meaningful: %+v", st)
	}

	decisions := reg.Counter(MetricVoterRounds, "outcome", "decision").Value()
	skipNoMod := reg.Counter(MetricVoterRounds, "outcome", "skip_no_modules").Value()
	skipDiv := reg.Counter(MetricVoterRounds, "outcome", "skip_divergence").Value()
	if decisions != uint64(st.Decisions) {
		t.Errorf("decision counter %d, stats %d", decisions, st.Decisions)
	}
	if skipNoMod+skipDiv != uint64(st.Skips) {
		t.Errorf("skip counters %d+%d, stats %d", skipNoMod, skipDiv, st.Skips)
	}
	if skipDiv != uint64(st.Divergences) {
		t.Errorf("divergence counter %d, stats %d", skipDiv, st.Divergences)
	}

	var rejuv uint64
	for _, m := range reg.Snapshot() {
		if m.Name == MetricRejuvenations {
			rejuv += uint64(*m.Value)
		}
	}
	if rejuv != uint64(st.ReactiveRejuvenations+st.ProactiveRejuvenations) {
		t.Errorf("rejuvenation counters %d, stats %d+%d",
			rejuv, st.ReactiveRejuvenations, st.ProactiveRejuvenations)
	}

	// Stats.Inferences counts voter rounds: the vote-latency histogram sees
	// exactly one observation per round, while the per-module latency
	// histograms sum to rounds x functional modules (between the all-dead
	// and all-healthy extremes).
	var voteCount, moduleCount uint64
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case MetricVoteLatency:
			voteCount += m.Histogram.Count
		case MetricInferenceLatency:
			moduleCount += m.Histogram.Count
		}
	}
	if voteCount != uint64(st.Inferences) {
		t.Errorf("vote histogram count %d, stats %d rounds", voteCount, st.Inferences)
	}
	if moduleCount == 0 || moduleCount > 3*uint64(st.Inferences) {
		t.Errorf("module inference count %d outside (0, 3x%d]", moduleCount, st.Inferences)
	}

	// The span stream saw the same lifecycle the stats did.
	if rt.Spans().Published() == 0 {
		t.Error("no spans published")
	}
}

// TestSkippedRoundPublishesOneDivergenceSpan pins the events-as-spans
// mapping for voter skips: a skipped round with live proposals is the
// divergence span and nothing else (the health engine counts divergence
// spans, so a second marker would double-count the round).
func TestSkippedRoundPublishesOneDivergenceSpan(t *testing.T) {
	versions := []Version[int, int]{
		&divergingVersion{name: "a", id: 0},
		&divergingVersion{name: "b", id: 1, compromised: true},
	}
	sys, err := NewSystem[int, int](versions, NewEqualityVoter[int](), noFaultConfig(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	rt := obs.NewRuntime(16)
	sys.InstrumentObs(rt)
	d, _, err := sys.Infer(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Skipped {
		t.Fatalf("a 1v1 split must skip: %+v", d)
	}
	spans := rt.Spans().Spans()
	if len(spans) != 1 || spans[0].Kind != "divergence" || spans[0].Start != 1 || spans[0].End != 1 {
		t.Fatalf("skipped round with live proposals published %+v, want exactly one zero-length divergence span", spans)
	}
	if got, _ := spans[0].AttrFloat("proposals"); got != 2 {
		t.Fatalf("divergence span proposals = %v, want 2", got)
	}
}

func TestInstrumentDetach(t *testing.T) {
	sys, err := NewSystem[int, int](testVersions(3), NewEqualityVoter[int](), noFaultConfig(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	rt := obs.NewRuntime(0)
	reg := rt.Metrics()
	sys.InstrumentObs(rt)
	if _, _, err := sys.Infer(1, 0); err != nil {
		t.Fatal(err)
	}
	before := reg.Counter(MetricVoterRounds, "outcome", "decision").Value()
	if before != 1 {
		t.Fatalf("decision counter %d, want 1", before)
	}
	sys.InstrumentObs(nil) // detach
	if _, _, err := sys.Infer(2, 0); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricVoterRounds, "outcome", "decision").Value(); got != before {
		t.Fatalf("detached system still counted: %d", got)
	}
}

func TestStatsRatios(t *testing.T) {
	var zero Stats
	if zero.SkipRatio() != 0 || zero.DecisionRatio() != 0 || zero.DivergenceRatio() != 0 {
		t.Fatal("zero-inference ratios must be 0, not NaN")
	}
	s := Stats{Inferences: 8, Skips: 2, Decisions: 6, Divergences: 1}
	if s.SkipRatio() != 0.25 || s.DecisionRatio() != 0.75 || s.DivergenceRatio() != 0.125 {
		t.Fatalf("ratios %v %v %v", s.SkipRatio(), s.DecisionRatio(), s.DivergenceRatio())
	}
}

// benchSystem builds a no-fault system so the benchmark isolates the Infer
// hot path itself.
func benchSystem(b *testing.B) *System[int, int] {
	b.Helper()
	sys, err := NewSystem[int, int](testVersions(3), NewEqualityVoter[int](), noFaultConfig(), xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func BenchmarkInferUninstrumented(b *testing.B) {
	sys := benchSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.Infer(float64(i), i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInferInstrumented(b *testing.B) {
	sys := benchSystem(b)
	sys.InstrumentObs(obs.NewRuntime(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.Infer(float64(i), i); err != nil {
			b.Fatal(err)
		}
	}
}
