package main

import (
	"flag"
	"io"

	"mvml/internal/cli"
	"mvml/internal/experiments"
)

// cmdDrive regenerates the paper's CARLA case study (Tables VI–VIII) on the
// built-in 2-D driving simulator, plus the design-choice ablations and the
// town maps (Fig. 5).
func cmdDrive(args []string, w, stderr io.Writer) error {
	cfg := experiments.DefaultCaseStudyConfig()
	fs := flag.NewFlagSet("mvml drive", flag.ContinueOnError)
	table := fs.Int("table", 0, "table number to regenerate (6-8)")
	mapPath := fs.String("map", "", "render the town maps and routes (Fig. 5 analog) to this PNG path")
	ablation := fs.String("ablation", "", "ablation study: voting, selection, or clocks")
	all := fs.Bool("all", false, "run every case-study experiment")
	runs := fs.Int("runs", cfg.RunsPerRoute, "runs per route")
	workers := fs.Int("workers", 0, "concurrent simulation runs (0 = GOMAXPROCS; results are worker-count-invariant)")
	seed := fs.Uint64("seed", cfg.Seed, "root random seed")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	switch {
	case *table != 0 && (*table < 6 || *table > 8):
		return cli.Usagef("no Table %d here: pass -table 6..8 (Tables 2..5 are mvml tables)", *table)
	case *runs < 1:
		return cli.Usagef("-runs %d: pass at least 1 run per route", *runs)
	case *ablation != "" && *ablation != "voting" && *ablation != "selection" && *ablation != "clocks":
		return cli.Usagef("no ablation %q: pass -ablation voting|selection|clocks", *ablation)
	case *table == 0 && *mapPath == "" && *ablation == "" && !*all:
		return cli.Usagef("nothing to do: pass -table 6..8, -map <png>, -ablation voting|selection|clocks, or -all")
	}

	cfg.RunsPerRoute = *runs
	cfg.Seed = *seed
	cfg.Workers = *workers
	if *mapPath != "" {
		if err := renderMaps(*mapPath, w); err != nil {
			return err
		}
	}
	return printSteps(w, []step{
		{*table == 6 || *all, func() (renderer, error) { return experiments.RunTableVI(cfg) }},
		{*table == 7 || *all, func() (renderer, error) { return experiments.RunTableVII(cfg, nil) }},
		{*table == 8 || *all, func() (renderer, error) { return experiments.RunTableVIII(cfg, 3) }},
		{*ablation == "voting" || *all, func() (renderer, error) { return experiments.RunVotingAblation(cfg) }},
		{*ablation == "selection" || *all, func() (renderer, error) { return experiments.RunSelectionAblation(cfg) }},
		{*ablation == "clocks" || *all, func() (renderer, error) { return experiments.RunClockAblation(cfg) }},
	})
}
