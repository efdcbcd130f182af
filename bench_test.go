// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment harness and reports the
// headline quantities via b.ReportMetric, so `go test -bench=. -benchmem`
// reproduces the whole evaluation in one sweep:
//
//	BenchmarkTableII    — fault-injection accuracies and fitted p/p'/α
//	BenchmarkTableIII   — per-state reliability functions
//	BenchmarkTableV     — steady-state reliability of the 6 configurations
//	BenchmarkFig4a..f   — the parameter sweeps of Fig. 4
//	BenchmarkTableVI    — driving-safety comparison over 8 routes
//	BenchmarkTableVII   — rejuvenation-interval sweep
//	BenchmarkTableVIII  — FPS/CPU/GPU overhead proxies
//	BenchmarkAblation*  — design-choice ablations from DESIGN.md
package mvml_test

import (
	"testing"

	"mvml/internal/core"
	"mvml/internal/drivesim"
	"mvml/internal/experiments"
	"mvml/internal/obs"
	"mvml/internal/perception"
	"mvml/internal/petri"
	"mvml/internal/reliability"
	"mvml/internal/xrand"
)

// benchSimConfig keeps the DSPN solves fast while preserving tight CIs.
func benchSimConfig() petri.SimConfig {
	return petri.SimConfig{Horizon: 2e6, Warmup: 2e4}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTableII(experiments.QuickTableIIConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.P, "p")
		b.ReportMetric(res.PPrime, "p'")
		b.ReportMetric(res.Alpha, "alpha")
	}
}

func BenchmarkTableIII(b *testing.B) {
	params := reliability.DefaultParams()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTableIII(params)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Values[0], "R(3,0,0)")
	}
}

func BenchmarkTableV(b *testing.B) {
	params := reliability.DefaultParams()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTableV(params, benchSimConfig(), xrand.New(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Without[3], "3v-wo")
		b.ReportMetric(res.With[3], "3v-w")
		b.ReportMetric(res.With[2], "2v-w")
	}
}

// benchFig4 runs one sweep letter and reports the 3-version endpoints.
func benchFig4(b *testing.B, letter string) {
	b.Helper()
	params := reliability.DefaultParams()
	cfg := experiments.Fig4Config{SimConfig: benchSimConfig(), Points: 6}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(letter, params, cfg, xrand.New(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		first := res.Points[0]
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(first.With[3], "3v-w-first")
		b.ReportMetric(last.With[3], "3v-w-last")
	}
}

func BenchmarkFig4a(b *testing.B) { benchFig4(b, "a") }
func BenchmarkFig4b(b *testing.B) { benchFig4(b, "b") }
func BenchmarkFig4c(b *testing.B) { benchFig4(b, "c") }
func BenchmarkFig4d(b *testing.B) { benchFig4(b, "d") }
func BenchmarkFig4e(b *testing.B) { benchFig4(b, "e") }
func BenchmarkFig4f(b *testing.B) { benchFig4(b, "f") }

func BenchmarkTableVI(b *testing.B) {
	cfg := experiments.DefaultCaseStudyConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTableVI(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var withColl, withoutColl int
		for r := range res.With {
			withColl += res.With[r].CollidedRuns
			withoutColl += res.Without[r].CollidedRuns
		}
		b.ReportMetric(float64(withColl), "coll-w")
		b.ReportMetric(float64(withoutColl), "coll-wo")
	}
}

func BenchmarkTableVII(b *testing.B) {
	cfg := experiments.DefaultCaseStudyConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTableVII(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[0].CollidedRuns), "coll-3s")
		b.ReportMetric(float64(res.Rows[len(res.Rows)-1].CollidedRuns), "coll-9s")
	}
}

func BenchmarkTableVIII(b *testing.B) {
	cfg := experiments.DefaultCaseStudyConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTableVIII(cfg, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].FPS.Mean, "fps-1v")
		b.ReportMetric(res.Rows[1].FPS.Mean, "fps-3v")
		b.ReportMetric(res.Rows[2].FPS.Mean, "fps-3v-rej")
	}
}

func BenchmarkAblationVoting(b *testing.B) {
	cfg := experiments.DefaultCaseStudyConfig()
	cfg.RunsPerRoute = 2
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunVotingAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].SkipRatio, "skip-quorum")
		b.ReportMetric(res.Rows[1].SkipRatio, "skip-list")
	}
}

func BenchmarkAblationSelection(b *testing.B) {
	cfg := experiments.DefaultCaseStudyConfig()
	cfg.RunsPerRoute = 2
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSelectionAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationClocks(b *testing.B) {
	cfg := experiments.DefaultCaseStudyConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunClockAblation(cfg.System, 100_000, xrand.New(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SharedDegraded, "degraded-shared")
		b.ReportMetric(res.PerModuleDegraded, "degraded-permodule")
	}
}

func BenchmarkExtensionNVersion(b *testing.B) {
	cfg := experiments.DefaultNVersionStudyConfig()
	cfg.Requests = 20_000
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunNVersionStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.ErrorFreeWith, "errfree-5v")
	}
}

func BenchmarkExtensionDiversity(b *testing.B) {
	cfg := experiments.QuickTableIIConfig()
	cfg.Dataset.TrainPerClass = 14
	cfg.Dataset.TestPerClass = 6
	cfg.Epochs = 6
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDiversityStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].Alpha, "alpha-init")
		b.ReportMetric(res.Rows[2].Alpha, "alpha-arch")
	}
}

func BenchmarkExtensionTransient(b *testing.B) {
	params := reliability.DefaultParams()
	model, err := reliability.NewModel(3, params, true)
	if err != nil {
		b.Fatal(err)
	}
	times := []float64{300, 1523, 6092}
	for i := 0; i < b.N; i++ {
		pts, err := model.TransientReliability(times, 800, 0, xrand.New(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].Reward.Mean, "R(6092s)")
	}
}

func BenchmarkExtensionFaultSensitivity(b *testing.B) {
	cfg := experiments.QuickTableIIConfig()
	cfg.Dataset.TrainPerClass = 14
	cfg.Dataset.TestPerClass = 6
	cfg.Epochs = 6
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFaultSensitivity(cfg, 6, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Campaigns[0].Baseline, "baseline")
	}
}

func BenchmarkAblationErlang(b *testing.B) {
	params := reliability.DefaultParams()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunErlangConvergence(params, []int{1, 5, 20}, xrand.New(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Simulated, "sim")
		b.ReportMetric(res.Values[len(res.Values)-1], "erlang-20")
	}
}

// benchTelemetryPipeline measures the perception inference hot path with
// telemetry detached or attached. The disabled path must cost nothing
// beyond nil checks; the enabled path adds a fixed few timestamp reads per
// round and no allocations.
func benchTelemetryPipeline(b *testing.B, instrument bool) {
	pipe, err := perception.NewPipeline(3, perception.DefaultDetectorParams(),
		core.Config{DisableFaults: true}, 1, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	if instrument {
		pipe.InstrumentObs(obs.NewRuntime(0))
	}
	sc := drivesim.Scene{
		Ego: drivesim.VehicleState{},
		Objects: []drivesim.Object{
			{ID: 1, Pos: drivesim.Vec2{X: 12, Y: 0}},
			{ID: 2, Pos: drivesim.Vec2{X: 30, Y: 1}},
		},
	}
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

func BenchmarkTelemetryDisabled(b *testing.B) { benchTelemetryPipeline(b, false) }
func BenchmarkTelemetryEnabled(b *testing.B)  { benchTelemetryPipeline(b, true) }
