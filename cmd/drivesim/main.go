// Command drivesim regenerates the paper's CARLA case study (Tables VI–VIII)
// on the built-in 2-D driving simulator, plus the design-choice ablations.
//
// Usage:
//
//	drivesim -table 6          # collision data, 8 routes, w/ and w/o rejuvenation
//	drivesim -table 7          # rejuvenation-interval sweep on route #1
//	drivesim -table 8          # overhead comparison
//	drivesim -ablation voting|selection|clocks
//	drivesim -all
//
// Telemetry (shared by all four binaries): -metrics-addr serves live
// Prometheus exposition, -telemetry-out writes the end-of-run JSON summary,
// -spans-out streams the JSONL span trace. Attaching telemetry never changes
// a run's decisions.
package main

import (
	"flag"
	"fmt"
	"os"

	"mvml/internal/experiments"
	"mvml/internal/obs"
	"mvml/internal/telemetry"
	"mvml/internal/xrand"
)

func main() {
	table := flag.Int("table", 0, "table number to regenerate (6-8)")
	mapPath := flag.String("map", "", "render the town maps and routes (Fig. 5 analog) to this PNG path")
	ablation := flag.String("ablation", "", "ablation study: voting, selection, or clocks")
	all := flag.Bool("all", false, "run every case-study experiment")
	runs := flag.Int("runs", 5, "runs per route")
	workers := flag.Int("workers", 0, "concurrent simulation runs (0 = GOMAXPROCS; results are worker-count-invariant)")
	seed := flag.Uint64("seed", 2025, "root random seed")
	var tele telemetry.Flags
	tele.RegisterFlags(flag.CommandLine)
	flag.Parse()

	tele.InfoLabel("workers", fmt.Sprintf("%d", *workers))
	rt, err := tele.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "drivesim:", err)
		os.Exit(1)
	}
	tele.AttachEngine()
	runErr := run(*table, *mapPath, *ablation, *all, *runs, *workers, *seed, rt)
	if err := tele.Finish(map[string]any{
		"command": "drivesim", "seed": *seed, "runs": *runs,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "drivesim:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "drivesim:", runErr)
		os.Exit(1)
	}
}

func run(table int, mapPath, ablation string, all bool, runs, workers int, seed uint64, rt *obs.Runtime) error {
	cfg := experiments.DefaultCaseStudyConfig()
	cfg.RunsPerRoute = runs
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Obs = rt

	ran := false
	if mapPath != "" {
		ran = true
		if err := renderMaps(mapPath); err != nil {
			return err
		}
	}
	if table == 6 || all {
		ran = true
		res, err := experiments.RunTableVI(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if table == 7 || all {
		ran = true
		res, err := experiments.RunTableVII(cfg, nil)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if table == 8 || all {
		ran = true
		res, err := experiments.RunTableVIII(cfg, 3)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if ablation == "voting" || all {
		ran = true
		res, err := experiments.RunVotingAblation(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if ablation == "selection" || all {
		ran = true
		res, err := experiments.RunSelectionAblation(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if ablation == "clocks" || all {
		ran = true
		res, err := experiments.RunClockAblation(cfg.System, 100_000, xrand.New(seed))
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if !ran {
		return fmt.Errorf("nothing to do: pass -table 6..8, -map <png>, -ablation voting|selection|clocks, or -all")
	}
	return nil
}
