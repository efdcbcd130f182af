package main

import (
	"flag"
	"io"
	"strings"

	"mvml/internal/cli"
	"mvml/internal/experiments"
	"mvml/internal/reliability"
)

// cmdTables regenerates the reliability side of the paper: Table II (model
// accuracies and fitted p/p'/α), Table III (state reliabilities), Table IV
// (model inputs), Table V (steady-state reliability of the six
// configurations), the Fig. 4 sweeps and the extension studies.
func cmdTables(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("mvml tables", flag.ContinueOnError)
	table := fs.Int("table", 0, "table number to regenerate (2-5)")
	fig := fs.String("fig", "", "Fig. 4 sweep letter (a-f)")
	nversion := fs.Bool("nversion", false, "run the N-version/voting-scheme extension study")
	diversity := fs.Bool("diversity", false, "run the diversity-source extension study (trains 9 models)")
	campaign := fs.Bool("campaign", false, "run the per-layer fault-sensitivity campaign (trains 1 model)")
	all := fs.Bool("all", false, "run every reliability-side experiment")
	quick := fs.Bool("quick", false, "reduced dataset/training budget for Table II")
	workers := fs.Int("workers", 0, "concurrent replications for fan-out experiments (0 = GOMAXPROCS; results are worker-count-invariant)")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	switch {
	case *table != 0 && (*table < 2 || *table > 5):
		return cli.Usagef("no Table %d here: pass -table 2..5 (Tables 6..8 are mvml drive)", *table)
	case *fig != "" && (len(*fig) != 1 || !strings.Contains("abcdef", *fig)):
		return cli.Usagef("no Fig. 4 sweep %q: pass -fig a..f", *fig)
	case *table == 0 && *fig == "" && !*nversion && !*diversity && !*campaign && !*all:
		return cli.Usagef("nothing to do: pass -table 2..5, -fig a..f, -nversion, -diversity, -campaign, or -all")
	}

	params := reliability.DefaultParams()
	train := experiments.DefaultTableIIConfig()
	if *quick {
		train = experiments.QuickTableIIConfig()
	}

	steps := []step{
		{*table == 2 || *all, func() (renderer, error) { return experiments.RunTableII(train) }},
		{*table == 3 || *all, func() (renderer, error) { return experiments.RunTableIII(params) }},
		{*table == 4 || *all, func() (renderer, error) { return text(experiments.RenderTableIV(params)), nil }},
		{*table == 5 || *all, func() (renderer, error) { return experiments.RunTableV(params) }},
	}
	for _, letter := range []string{"a", "b", "c", "d", "e", "f"} {
		steps = append(steps, step{*fig == letter || (*fig == "" && *all), func() (renderer, error) {
			return experiments.RunFig4(letter, params)
		}})
	}
	nvCfg := experiments.DefaultNVersionStudyConfig()
	nvCfg.Workers = *workers
	steps = append(steps,
		step{*nversion || *all, func() (renderer, error) { return experiments.RunNVersionStudy(nvCfg) }},
		step{*diversity, func() (renderer, error) { return experiments.RunDiversityStudy(train) }},
		step{*campaign, func() (renderer, error) { return experiments.RunFaultSensitivity(train, 20, *workers) }},
	)
	return printSteps(w, steps)
}
