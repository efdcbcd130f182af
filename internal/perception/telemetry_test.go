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

func benchPerceive(b *testing.B, instrument bool) {
	pipe, err := NewPipeline(3, DefaultDetectorParams(), core.Config{DisableFaults: true}, 1, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	if instrument {
		pipe.InstrumentObs(obs.NewRuntime(0))
	}
	sc := scene(0, 0, obj(1, 12, 0), obj(2, 30, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Frame = i
		sc.Time = float64(i) * 0.05
		if _, err := pipe.Perceive(sc.Time, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// The pair below measures instrumentation overhead: a fixed cost of a few
// timestamp reads per round (no extra allocations), which vanishes against
// real inference workloads; the uninstrumented path pays only nil checks.
func BenchmarkPerceiveUninstrumented(b *testing.B) { benchPerceive(b, false) }
func BenchmarkPerceiveInstrumented(b *testing.B)   { benchPerceive(b, true) }
