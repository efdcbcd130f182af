package experiments

import (
	"fmt"

	"mvml/internal/core"
	"mvml/internal/drivesim"
	"mvml/internal/parallel"
	"mvml/internal/perception"
	"mvml/internal/stats"
	"mvml/internal/xrand"
)

// CaseStudyConfig parameterises the CARLA-style driving experiments
// (Tables VI–VIII).
type CaseStudyConfig struct {
	// RunsPerRoute is the number of repetitions (the paper uses 5).
	RunsPerRoute int
	// CruiseSpeed is the ego target speed (m/s).
	CruiseSpeed float64
	// Detector is the perception error model.
	Detector perception.DetectorParams
	// System is the fault/rejuvenation configuration of the
	// with-rejuvenation arm; the without arm disables the rejuvenation
	// mechanism entirely.
	System core.Config
	// Seed drives all runs.
	Seed uint64
	// Workers bounds concurrent simulation runs (<= 0 = GOMAXPROCS). Every
	// run's randomness is Split from the experiment root by (route, run)
	// seed, so results are identical for every worker count.
	Workers int
}

// DefaultCaseStudyConfig returns the paper's §VII-A setup.
func DefaultCaseStudyConfig() CaseStudyConfig {
	return CaseStudyConfig{
		RunsPerRoute: 5,
		CruiseSpeed:  10,
		Detector:     perception.DefaultDetectorParams(),
		System:       core.CaseStudyConfig(),
		Seed:         2025,
	}
}

// RouteStats aggregates the paper's Table VI metrics for one route and arm.
type RouteStats struct {
	Route string
	// FirstCollisionFrame is the mean frame of the first collision over
	// colliding runs (-1 if none collided).
	FirstCollisionFrame int
	// TotalFrames is the mean run length.
	TotalFrames int
	// CollisionRatePct is collision frames / total frames (%).
	CollisionRatePct float64
	// CollidedRuns / Runs is the "#Coll." column.
	CollidedRuns, Runs int
	// SkipRatio is the mean fraction of skipped frames.
	SkipRatio float64
}

// TableVIResult compares the eight routes with and without rejuvenation.
type TableVIResult struct {
	With    []RouteStats
	Without []RouteStats
}

// runRoute executes RunsPerRoute simulations of one route and arm.
func runRoute(cfg CaseStudyConfig, route int, rejuvenate bool, root *xrand.Rand) (RouteStats, error) {
	sysCfg := cfg.System
	if !rejuvenate {
		// The without-rejuvenation arm disables the entire rejuvenation
		// mechanism, so the ensemble degrades monotonically over a run.
		sysCfg.RejuvenationInterval = 0
		sysCfg.DisableReactive = true
	}
	var agg RouteStats
	agg.Runs = cfg.RunsPerRoute
	var firstSum, firstN, totalSum, collFrames, frames int
	var skipSum float64
	// Fan the runs out. Each run derives its streams from the shared root
	// by its (route, run) seed — a pure read of root — and builds a private
	// pipeline, so runs are self-contained; the results come back in run
	// order and the aggregation below sums in the sequential order.
	runs, err := parallel.Run(root, "run", cfg.RunsPerRoute, parallel.Options{Workers: cfg.Workers}, func(run int, _ *xrand.Rand) (*drivesim.Result, error) {
		seed := uint64(route*100 + run)
		pipe, err := perception.NewPipeline(3, cfg.Detector, sysCfg, seed, root.Split("sys", seed))
		if err != nil {
			return nil, err
		}
		return drivesim.Run(drivesim.Config{RouteNumber: route, CruiseSpeed: cfg.CruiseSpeed},
			pipe, root.Split("sim", seed))
	})
	if err != nil {
		return RouteStats{}, err
	}
	for _, res := range runs {
		agg.Route = res.Route
		totalSum += res.TotalFrames
		frames += res.TotalFrames
		collFrames += res.CollisionFrames
		skipSum += res.SkipRatio()
		if res.Collided {
			agg.CollidedRuns++
			firstSum += res.FirstCollisionFrame
			firstN++
		}
	}
	agg.TotalFrames = totalSum / cfg.RunsPerRoute
	if firstN > 0 {
		agg.FirstCollisionFrame = firstSum / firstN
	} else {
		agg.FirstCollisionFrame = -1
	}
	if frames > 0 {
		agg.CollisionRatePct = 100 * float64(collFrames) / float64(frames)
	}
	agg.SkipRatio = skipSum / float64(cfg.RunsPerRoute)
	return agg, nil
}

// RunTableVI reproduces the paper's Table VI: collision data of the
// three-version perception system with and without rejuvenation over the
// eight routes.
func RunTableVI(cfg CaseStudyConfig) (*TableVIResult, error) {
	root := xrand.New(cfg.Seed)
	res := &TableVIResult{}
	for route := 1; route <= drivesim.NumRoutes; route++ {
		w, err := runRoute(cfg, route, true, root)
		if err != nil {
			return nil, fmt.Errorf("experiments: table VI route %d w/: %w", route, err)
		}
		wo, err := runRoute(cfg, route, false, root)
		if err != nil {
			return nil, fmt.Errorf("experiments: table VI route %d w/o: %w", route, err)
		}
		res.With = append(res.With, w)
		res.Without = append(res.Without, wo)
	}
	return res, nil
}

// Totals aggregates one arm across routes: average first collision,
// average total frames, overall collision rate, total collided runs.
func totals(rows []RouteStats) (first, totalFrames int, ratePct float64, collided, runs int, skip float64) {
	var firstSum, firstN, totalSum, rateN int
	var rateSum, skipSum float64
	for _, r := range rows {
		if r.FirstCollisionFrame >= 0 {
			firstSum += r.FirstCollisionFrame
			firstN++
		}
		totalSum += r.TotalFrames
		rateSum += r.CollisionRatePct
		rateN++
		collided += r.CollidedRuns
		runs += r.Runs
		skipSum += r.SkipRatio
	}
	if firstN > 0 {
		first = firstSum / firstN
	} else {
		first = -1
	}
	if rateN > 0 {
		totalFrames = totalSum / rateN
		ratePct = rateSum / float64(rateN)
		skip = skipSum / float64(rateN)
	}
	return first, totalFrames, ratePct, collided, runs, skip
}

// Render formats the result like the paper's Table VI.
func (r *TableVIResult) Render() string {
	t := &Table{
		Title: "Table VI: collision data of the multi-version perception system w/ and w/o rejuvenation",
		Headers: []string{"Route", "1st coll. w/", "1st coll. w/o", "Frames w/", "Frames w/o",
			"Rate% w/", "Rate% w/o", "#Coll w/", "#Coll w/o"},
	}
	fmtFirst := func(v int) string {
		if v < 0 {
			return "NA"
		}
		return fmt.Sprintf("%d", v)
	}
	for i := range r.With {
		w, wo := r.With[i], r.Without[i]
		t.AddRow(fmt.Sprintf("#%d (%s)", i+1, w.Route),
			fmtFirst(w.FirstCollisionFrame), fmtFirst(wo.FirstCollisionFrame),
			fmt.Sprintf("%d", w.TotalFrames), fmt.Sprintf("%d", wo.TotalFrames),
			fmt.Sprintf("%.2f", w.CollisionRatePct), fmt.Sprintf("%.2f", wo.CollisionRatePct),
			fmt.Sprintf("%d/%d", w.CollidedRuns, w.Runs), fmt.Sprintf("%d/%d", wo.CollidedRuns, wo.Runs))
	}
	wf, wt, wr, wc, wruns, wskip := totals(r.With)
	of, ot, or, oc, oruns, _ := totals(r.Without)
	t.AddRow("Avg/Total", fmtFirst(wf), fmtFirst(of),
		fmt.Sprintf("%d", wt), fmt.Sprintf("%d", ot),
		fmt.Sprintf("%.2f", wr), fmt.Sprintf("%.2f", or),
		fmt.Sprintf("%d/%d", wc, wruns), fmt.Sprintf("%d/%d", oc, oruns))
	t.Notes = append(t.Notes,
		fmt.Sprintf("with-rejuvenation skip ratio: %.3f (paper: ~0.02)", wskip),
		"paper totals: w/ 0/40 at 0.00%, w/o 33/40 at 33.54%, first collision avg 287")
	return t.String()
}

// TableVIIRow is one rejuvenation-interval configuration of Table VII.
type TableVIIRow struct {
	Interval            float64
	FirstCollisionFrame int
	TotalFrames         int
	CollisionRatePct    float64
	CollidedRuns, Runs  int
}

// TableVIIResult sweeps the rejuvenation interval on route #1.
type TableVIIResult struct {
	Rows []TableVIIRow
}

// RunTableVII reproduces the paper's Table VII: the impact of the
// rejuvenation interval (3, 5, 7, 9 s) on driving safety for route #1.
func RunTableVII(cfg CaseStudyConfig, intervals []float64) (*TableVIIResult, error) {
	if len(intervals) == 0 {
		intervals = []float64{3, 5, 7, 9}
	}
	root := xrand.New(cfg.Seed + 1)
	res := &TableVIIResult{}
	for i, interval := range intervals {
		c := cfg
		c.System.RejuvenationInterval = interval
		stats, err := runRoute(c, 1, true, root.Split("interval", uint64(i)))
		if err != nil {
			return nil, fmt.Errorf("experiments: table VII interval %v: %w", interval, err)
		}
		res.Rows = append(res.Rows, TableVIIRow{
			Interval:            interval,
			FirstCollisionFrame: stats.FirstCollisionFrame,
			TotalFrames:         stats.TotalFrames,
			CollisionRatePct:    stats.CollisionRatePct,
			CollidedRuns:        stats.CollidedRuns,
			Runs:                stats.Runs,
		})
	}
	return res, nil
}

// Render formats the result like the paper's Table VII.
func (r *TableVIIResult) Render() string {
	t := &Table{
		Title:   "Table VII: impact of the rejuvenation interval on driving safety (route #1)",
		Headers: []string{"1/gamma (s)", "1st coll.", "Total", "Coll. rate", "#Coll."},
	}
	for _, row := range r.Rows {
		first := "NA"
		if row.FirstCollisionFrame >= 0 {
			first = fmt.Sprintf("%d", row.FirstCollisionFrame)
		}
		t.AddRow(fmt.Sprintf("%.0f", row.Interval), first,
			fmt.Sprintf("%d", row.TotalFrames),
			fmt.Sprintf("%.2f%%", row.CollisionRatePct),
			fmt.Sprintf("%d/%d", row.CollidedRuns, row.Runs))
	}
	t.Notes = append(t.Notes, "paper: 0/5, 1/5, 2/5, 3/5 at rates 0.00/1.27/8.93/10.44%")
	return t.String()
}

// OverheadRow is one perception configuration of Table VIII.
type OverheadRow struct {
	System string
	FPS    stats.Interval
	CPU    stats.Interval
	GPU    stats.Interval
}

// TableVIIIResult compares the overhead of single-version, three-version
// and three-version-with-rejuvenation perception.
type TableVIIIResult struct {
	Rows []OverheadRow
}

// RunTableVIII reproduces the paper's Table VIII overhead comparison on
// route #1. FPS/CPU/GPU are deterministic cost-model proxies (see
// drivesim's cost account); the confidence intervals come from run-to-run
// variation, as in the paper's three-run setup.
func RunTableVIII(cfg CaseStudyConfig, runs int) (*TableVIIIResult, error) {
	if runs < 2 {
		runs = 3
	}
	root := xrand.New(cfg.Seed + 2)
	res := &TableVIIIResult{}
	type arm struct {
		name     string
		versions int
		system   core.Config
	}
	healthy := core.Config{DisableFaults: true}
	faultyWithRejuvenation := cfg.System
	arms := []arm{
		{"Single-v", 1, healthy},
		{"Three-v", 3, healthy},
		{"Three-v w/rej", 3, faultyWithRejuvenation},
	}
	for ai, a := range arms {
		// Per-arm fan-out over the repeated runs; per-run results come back
		// in run order, so the CI inputs below are assembled exactly as the
		// sequential loop did.
		type overhead struct{ fps, cpu, gpu float64 }
		runRes, err := parallel.Run(root, "run", runs, parallel.Options{Workers: cfg.Workers}, func(run int, _ *xrand.Rand) (overhead, error) {
			seed := uint64(ai*100 + run)
			pipe, err := perception.NewPipeline(a.versions, cfg.Detector, a.system, seed,
				root.Split("sys", seed))
			if err != nil {
				return overhead{}, err
			}
			r, err := drivesim.Run(drivesim.Config{RouteNumber: 1, CruiseSpeed: cfg.CruiseSpeed},
				pipe, root.Split("sim", seed))
			if err != nil {
				return overhead{}, err
			}
			return overhead{fps: r.AvgFPS, cpu: r.AvgCPUUtil, gpu: r.AvgGPUUtil}, nil
		})
		if err != nil {
			return nil, err
		}
		var fps, cpu, gpu []float64
		for _, r := range runRes {
			fps = append(fps, r.fps)
			cpu = append(cpu, r.cpu)
			gpu = append(gpu, r.gpu)
		}
		fpsCI, err := stats.MeanCI(fps, 0.95)
		if err != nil {
			return nil, err
		}
		cpuCI, err := stats.MeanCI(cpu, 0.95)
		if err != nil {
			return nil, err
		}
		gpuCI, err := stats.MeanCI(gpu, 0.95)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, OverheadRow{System: a.name, FPS: fpsCI, CPU: cpuCI, GPU: gpuCI})
	}
	return res, nil
}

// Render formats the result like the paper's Table VIII.
func (r *TableVIIIResult) Render() string {
	t := &Table{
		Title:   "Table VIII: overhead comparison (route #1)",
		Headers: []string{"System", "FPS [CI]", "CPU-% [CI]", "GPU-% [CI]"},
	}
	ci := func(iv stats.Interval) string {
		return fmt.Sprintf("%.2f [%.4f, %.4f]", iv.Mean, iv.Lo, iv.Hi)
	}
	for _, row := range r.Rows {
		t.AddRow(row.System, ci(row.FPS), ci(row.CPU), ci(row.GPU))
	}
	t.Notes = append(t.Notes,
		"paper: 5.85/3.62/28.0, 4.27/3.97/35.0, 4.20/3.76/33.0 (FPS/CPU%/GPU%)")
	return t.String()
}
