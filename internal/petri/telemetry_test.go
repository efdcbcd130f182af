package petri

import (
	"testing"

	"mvml/internal/obs"
	"mvml/internal/xrand"
)

// TestSimulateTelemetry checks that attaching a registry and a span sink
// counts every firing without perturbing the simulation's random stream.
func TestSimulateTelemetry(t *testing.T) {
	cfg := SimConfig{Horizon: 2000, Warmup: 10}

	n1, _ := buildCycle(1, 2, 3)
	plain, err := Simulate(n1, cfg, nil, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	sink := obs.NewSpanSink(8)
	cfg.Metrics = reg
	cfg.Spans = sink
	n2, _ := buildCycle(1, 2, 3)
	inst, err := Simulate(n2, cfg, nil, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}

	// Determinism: the same seed fires the same event sequence.
	if plain.Events != inst.Events || plain.Observed != inst.Observed {
		t.Fatalf("instrumented run diverged: events %d vs %d, observed %v vs %v",
			plain.Events, inst.Events, plain.Observed, inst.Observed)
	}
	for key, frac := range plain.Occupancy {
		if inst.Occupancy[key] != frac {
			t.Fatalf("occupancy diverged at %s: %v vs %v", key, frac, inst.Occupancy[key])
		}
	}

	// Every firing was counted, split across the three transitions.
	var fired uint64
	for _, m := range reg.Snapshot() {
		if m.Name == MetricFirings {
			if m.Labels["net"] != "cycle" {
				t.Fatalf("firing counter labels %+v", m.Labels)
			}
			fired += uint64(*m.Value)
		}
	}
	if fired != uint64(inst.Events) {
		t.Fatalf("firing counters %d, events %d", fired, inst.Events)
	}

	// Simulated-time progress reached the end of the run.
	gauge := reg.Gauge(MetricSimTime, "net", "cycle").Value()
	if gauge <= 0 || gauge > cfg.Warmup+cfg.Horizon {
		t.Fatalf("sim-time gauge %v outside (0, %v]", gauge, cfg.Warmup+cfg.Horizon)
	}

	// One zero-duration end-of-run span on the simulation clock.
	evs := sink.Spans()
	if len(evs) != 1 || evs[0].Kind != "petri_run_end" || evs[0].Start != evs[0].End || evs[0].End <= 0 {
		t.Fatalf("spans %+v", evs)
	}
	if evs[0].Attrs["net"] != "cycle" || evs[0].Attrs["events"] != inst.Events {
		t.Fatalf("span attrs %+v", evs[0].Attrs)
	}
}
