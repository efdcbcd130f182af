package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"slices"

	"mvml/internal/cli"
	"mvml/internal/experiments"
	"mvml/internal/reliability"
	"mvml/internal/xrand"
)

// cmdDSPN builds and solves the paper's DSPN reliability models (Figs. 2 and
// 3) directly: it prints the steady-state probability of every (i, j, k)
// system state, the expected output reliability, and — for the proactive
// model — cross-validates the Monte-Carlo solution against the Erlang
// phase-type approximation.
func cmdDSPN(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("mvml dspn", flag.ContinueOnError)
	n := fs.Int("n", 3, "number of ML module versions (1-3)")
	interval := fs.Float64("interval", 0, "rejuvenation interval 1/gamma in seconds (0 = Table IV default)")
	erlang := fs.Int("erlang", 0, "Erlang stages for the cross-validation solve (0 = skip)")
	transient := fs.Bool("transient", false, "also print the mission-time reliability curve E[R(t)]")
	workers := fs.Int("workers", 0, "concurrent transient replications (0 = GOMAXPROCS; results are worker-count-invariant)")
	seed := fs.Uint64("seed", experiments.Seed, "simulation seed")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}

	params := reliability.DefaultParams()
	if *interval > 0 {
		params.RejuvenationInterval = *interval
	}
	rng := xrand.New(*seed)

	without, err := reliability.NewModel(*n, params, false)
	if err != nil {
		return err
	}
	exact, err := without.SolveExact()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d-version model WITHOUT proactive rejuvenation (Fig. 2, exact CTMC):\n", *n)
	printStates(w, exact.StateProbs)
	fmt.Fprintf(w, "  E[R] = %.6f\n\n", exact.Expected)

	with, err := reliability.NewModel(*n, params, true)
	if err != nil {
		return err
	}
	sim, err := with.SolveSimulation(reliability.DefaultSimConfig(), rng)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d-version model WITH proactive rejuvenation (Fig. 3, DSPN simulation, 1/gamma = %.0fs):\n",
		*n, params.RejuvenationInterval)
	printStates(w, sim.StateProbs)
	fmt.Fprintf(w, "  E[R] = %.6f  CI %s\n", sim.Expected, sim.CI)

	if *erlang > 0 {
		erl, err := with.SolveErlang(*erlang)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nErlang(%d) phase-type cross-check: E[R] = %.6f (delta %.6f)\n",
			*erlang, erl.Expected, erl.Expected-sim.Expected)
	}

	if *transient {
		times := []float64{
			params.RejuvenationInterval / 2, params.RejuvenationInterval,
			params.MeanTimeToCompromise / 2, params.MeanTimeToCompromise,
			2 * params.MeanTimeToCompromise, 4 * params.MeanTimeToCompromise,
		}
		fmt.Fprintln(w, "\nmission-time reliability E[R(t)] from an all-healthy start:")
		fmt.Fprintln(w, "  t (s)        w/ rejuvenation          w/o proactive rejuvenation")
		withPts, err := with.TransientReliability(times, 2000, *workers, rng.Split("transient-with", 0))
		if err != nil {
			return err
		}
		withoutPts, err := without.TransientReliability(times, 2000, *workers, rng.Split("transient-without", 0))
		if err != nil {
			return err
		}
		for i := range withPts {
			fmt.Fprintf(w, "  %8.0f     %.4f [%.4f,%.4f]   %.4f [%.4f,%.4f]\n",
				withPts[i].Time,
				withPts[i].Reward.Mean, withPts[i].Reward.Lo, withPts[i].Reward.Hi,
				withoutPts[i].Reward.Mean, withoutPts[i].Reward.Lo, withoutPts[i].Reward.Hi)
		}
	}
	return nil
}

func printStates(w io.Writer, probs map[reliability.State]float64) {
	states := make([]reliability.State, 0, len(probs))
	for s := range probs {
		states = append(states, s)
	}
	slices.SortFunc(states, func(a, b reliability.State) int {
		return cmp.Or(b.Healthy-a.Healthy, b.Compromised-a.Compromised)
	})
	for _, s := range states {
		fmt.Fprintf(w, "  pi%v = %.6f\n", s, probs[s])
	}
}
