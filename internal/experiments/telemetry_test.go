package experiments

import (
	"testing"

	"mvml/internal/drivesim"
	"mvml/internal/obs"
	"mvml/internal/perception"
	"mvml/internal/xrand"
)

// TestCaseStudyTelemetryDeterminism is the end-to-end determinism
// regression test: one case-study route driven by the real 3-version
// perception pipeline must produce identical driving results and identical
// system stats whether or not telemetry is attached.
func TestCaseStudyTelemetryDeterminism(t *testing.T) {
	cfg := DefaultCaseStudyConfig()
	const route, seed = 1, 7

	drive := func(rt *obs.Runtime) (*drivesim.Result, *perception.Pipeline) {
		t.Helper()
		root := xrand.New(cfg.Seed)
		pipe, err := perception.NewPipeline(3, cfg.Detector, cfg.System, seed, root.Split("sys", seed))
		if err != nil {
			t.Fatal(err)
		}
		pipe.InstrumentObs(rt)
		res, err := drivesim.Run(drivesim.Config{
			RouteNumber: route,
			CruiseSpeed: cfg.CruiseSpeed,
			Metrics:     rt.Metrics(),
			Spans:       rt.Spans(),
		}, pipe, root.Split("sim", seed))
		if err != nil {
			t.Fatal(err)
		}
		return res, pipe
	}

	plainRes, plainPipe := drive(nil)
	rt := obs.NewRuntime(obs.DefaultTraceCapacity)
	instRes, instPipe := drive(rt)

	if *plainRes != *instRes {
		t.Errorf("drive results diverged:\nplain        %+v\ninstrumented %+v", *plainRes, *instRes)
	}
	if plainPipe.System().Stats() != instPipe.System().Stats() {
		t.Errorf("system stats diverged:\nplain        %+v\ninstrumented %+v",
			plainPipe.System().Stats(), instPipe.System().Stats())
	}

	// Sanity: the instrumented run actually recorded something.
	st := instPipe.System().Stats()
	if st.Inferences == 0 {
		t.Fatal("no inferences — test drove nothing")
	}
	var voteCount uint64
	for _, m := range rt.Metrics().Snapshot() {
		if m.Name == "mvml_vote_latency_seconds" {
			voteCount += m.Histogram.Count
		}
	}
	if voteCount != uint64(st.Inferences) {
		t.Errorf("vote histogram count %d, stats %d", voteCount, st.Inferences)
	}
	// The drive's own events are zero-duration spans on one trace of their
	// own, closed by exactly one run_end.
	runEnds := 0
	for _, r := range rt.Spans().Spans() {
		if r.Kind == "run_end" {
			runEnds++
			if r.Start != r.End || r.AttrBool("collided") != instRes.Collided {
				t.Errorf("run_end span %+v disagrees with result %+v", r, *instRes)
			}
		}
	}
	if runEnds != 1 {
		t.Errorf("%d run_end spans from one instrumented case-study run, want 1", runEnds)
	}
}
