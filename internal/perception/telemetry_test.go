package perception

import (
	"testing"

	"mvml/internal/core"
	"mvml/internal/obs"
	"mvml/internal/xrand"
)

func TestPipelineInstrumentRecords(t *testing.T) {
	pipe, err := NewPipeline(3, DefaultDetectorParams(), core.Config{DisableFaults: true}, 1, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	rt := obs.NewRuntime(0)
	reg := rt.Metrics()
	pipe.InstrumentObs(rt)
	sc := scene(0, 0, obj(1, 12, 0))
	for i := 0; i < 5; i++ {
		if _, err := pipe.Perceive(float64(i)*0.05, sc); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter(MetricPerceiveRounds).Value(); got != 5 {
		t.Fatalf("perceive rounds %d, want 5", got)
	}
	var latCount uint64
	for _, m := range reg.Snapshot() {
		if m.Name == MetricPerceiveLatency {
			latCount = m.Histogram.Count
		}
	}
	if latCount != 5 {
		t.Fatalf("perceive latency count %d, want 5", latCount)
	}
}

// perceiveLoop returns one Perceive round on a fresh three-version pipeline,
// instrumented or not, at frame i.
func perceiveLoop(tb testing.TB, instrument bool) func(i int) {
	pipe, err := NewPipeline(3, DefaultDetectorParams(), core.Config{DisableFaults: true}, 1, xrand.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	if instrument {
		pipe.InstrumentObs(obs.NewRuntime(0))
	}
	sc := scene(0, 0, obj(1, 12, 0), obj(2, 30, 1))
	return func(i int) {
		sc.Frame = i
		sc.Time = float64(i) * 0.05
		if _, err := pipe.Perceive(sc.Time, sc); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestPerceiveTelemetryAddsNoAllocs: attaching telemetry costs a round a few
// timestamp reads and no heap allocation.
func TestPerceiveTelemetryAddsNoAllocs(t *testing.T) {
	allocs := func(instrument bool) float64 {
		round, i := perceiveLoop(t, instrument), 0
		return testing.AllocsPerRun(200, func() { round(i); i++ })
	}
	if plain, instrumented := allocs(false), allocs(true); instrumented != plain {
		t.Fatalf("Perceive allocates %v per round instrumented, %v without", instrumented, plain)
	}
}

func benchPerceive(b *testing.B, instrument bool) {
	round := perceiveLoop(b, instrument)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i)
	}
}

// The pair below measures instrumentation overhead: a fixed cost of a few
// timestamp reads per round, which vanishes against real inference
// workloads; the uninstrumented path pays only nil checks.
func BenchmarkPerceiveUninstrumented(b *testing.B) { benchPerceive(b, false) }
func BenchmarkPerceiveInstrumented(b *testing.B)   { benchPerceive(b, true) }
