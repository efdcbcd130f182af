// Command mvmlbench regenerates the reliability-side evaluation of the
// paper: Table II (model accuracies and fitted p/p'/α), Table III (state
// reliabilities), Table IV (model inputs), Table V (steady-state reliability
// of the six configurations) and the Fig. 4 parameter sweeps.
//
// Usage:
//
//	mvmlbench -table 2 [-quick]     # fault-injection experiment
//	mvmlbench -table 3|4|5          # reliability tables
//	mvmlbench -fig a|b|c|d|e|f      # Fig. 4 sweeps
//	mvmlbench -all [-quick]         # everything
package main

import (
	"flag"
	"fmt"
	"os"

	"mvml/internal/experiments"
	"mvml/internal/obs"
	"mvml/internal/petri"
	"mvml/internal/reliability"
	"mvml/internal/telemetry"
	"mvml/internal/xrand"
)

func main() {
	table := flag.Int("table", 0, "table number to regenerate (2-5)")
	fig := flag.String("fig", "", "Fig. 4 sweep letter (a-f)")
	nversion := flag.Bool("nversion", false, "run the N-version/voting-scheme extension study")
	diversity := flag.Bool("diversity", false, "run the diversity-source extension study (trains 9 models)")
	campaign := flag.Bool("campaign", false, "run the per-layer fault-sensitivity campaign (trains 1 model)")
	all := flag.Bool("all", false, "run every reliability-side experiment")
	quick := flag.Bool("quick", false, "reduced dataset/training budget for Table II")
	workers := flag.Int("workers", 0, "concurrent replications for fan-out experiments (0 = GOMAXPROCS; results are worker-count-invariant)")
	seed := flag.Uint64("seed", 1, "random seed for simulations")
	horizon := flag.Float64("horizon", 0, "DSPN simulation horizon in model seconds (0 = default)")
	var tele telemetry.Flags
	tele.RegisterFlags(flag.CommandLine)
	flag.Parse()

	tele.InfoLabel("workers", fmt.Sprintf("%d", *workers))
	rt, err := tele.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvmlbench:", err)
		os.Exit(1)
	}
	tele.AttachEngine()
	runErr := run(*table, *fig, *nversion, *diversity, *campaign, *all, *quick, *workers, *seed, *horizon, rt)
	if err := tele.Finish(map[string]any{
		"command": "mvmlbench", "seed": *seed,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "mvmlbench:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "mvmlbench:", runErr)
		os.Exit(1)
	}
}

func run(table int, fig string, nversion, diversity, campaign, all, quick bool, workers int, seed uint64, horizon float64, rt *obs.Runtime) error {
	rng := xrand.New(seed)
	params := reliability.DefaultParams()
	simCfg := reliability.DefaultSimConfig()
	if horizon > 0 {
		simCfg = petri.SimConfig{Horizon: horizon, Warmup: horizon / 100}
	}
	simCfg.Metrics = rt.Metrics()
	simCfg.Spans = rt.Spans()

	ran := false
	if table == 2 || all {
		ran = true
		cfg := experiments.DefaultTableIIConfig()
		if quick {
			cfg = experiments.QuickTableIIConfig()
		}
		res, err := experiments.RunTableII(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		// Feed the fitted parameters into the downstream tables when
		// running everything.
		if all {
			params = res.Params()
		}
	}
	if table == 3 || all {
		ran = true
		res, err := experiments.RunTableIII(params)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if table == 4 || all {
		ran = true
		fmt.Println(experiments.RenderTableIV(params))
	}
	if table == 5 || all {
		ran = true
		res, err := experiments.RunTableV(params, simCfg, rng)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	letters := []string{}
	if fig != "" {
		letters = append(letters, fig)
	} else if all {
		letters = []string{"a", "b", "c", "d", "e", "f"}
	}
	for _, letter := range letters {
		ran = true
		res, err := experiments.RunFig4(letter, params, experiments.Fig4Config{SimConfig: simCfg}, rng)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if nversion || all {
		ran = true
		nvCfg := experiments.DefaultNVersionStudyConfig()
		nvCfg.Workers = workers
		res, err := experiments.RunNVersionStudy(nvCfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if diversity {
		ran = true
		cfg := experiments.QuickTableIIConfig()
		if !quick {
			cfg = experiments.DefaultTableIIConfig()
		}
		res, err := experiments.RunDiversityStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if campaign {
		ran = true
		cfg := experiments.QuickTableIIConfig()
		if !quick {
			cfg = experiments.DefaultTableIIConfig()
		}
		res, err := experiments.RunFaultSensitivity(cfg, 20, workers)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if !ran {
		return fmt.Errorf("nothing to do: pass -table 2..5, -fig a..f, -nversion, -diversity, -campaign, or -all")
	}
	return nil
}
