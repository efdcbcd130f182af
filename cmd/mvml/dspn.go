package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"math"
	"slices"

	"mvml/internal/cli"
	"mvml/internal/reliability"
)

// cmdDSPN builds and solves the paper's DSPN reliability models (Figs. 2 and
// 3) exactly: it prints the steady-state probability of every (i, j, k)
// system state, the expected output reliability, optionally the Erlang
// phase-type cross-check of the proactive model, and the exact mission-time
// curve.
func cmdDSPN(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("mvml dspn", flag.ContinueOnError)
	n := fs.Int("n", 3, "number of ML module versions (1-3)")
	interval := fs.Float64("interval", 0, "rejuvenation interval 1/gamma in seconds (0 = Table IV default)")
	erlang := fs.Int("erlang", 0, "Erlang stages for the cross-validation solve (0 = skip)")
	transient := fs.Bool("transient", false, "also print the mission-time reliability curve E[R(t)]")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	switch {
	case *interval < 0 || math.IsNaN(*interval) || math.IsInf(*interval, 0):
		return cli.Usagef("-interval %v: pass a positive rejuvenation interval in seconds (0 = Table IV default)", *interval)
	case *erlang < 0:
		return cli.Usagef("-erlang %d: pass a positive stage count (0 = skip)", *erlang)
	}

	params := reliability.DefaultParams()
	if *interval > 0 {
		params.RejuvenationInterval = *interval
	}

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
	exactWith, err := with.SolveExact()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d-version model WITH proactive rejuvenation (Fig. 3, exact Markov regenerative process, 1/gamma = %.0fs):\n",
		*n, params.RejuvenationInterval)
	printStates(w, exactWith.StateProbs)
	fmt.Fprintf(w, "  E[R] = %.6f\n", exactWith.Expected)

	if *erlang > 0 {
		erl, err := with.SolveErlang(*erlang)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nErlang(%d) phase-type cross-check: E[R] = %.6f (delta %.6f)\n",
			*erlang, erl.Expected, erl.Expected-exactWith.Expected)
	}

	if *transient {
		times := []float64{
			params.RejuvenationInterval / 2, params.RejuvenationInterval,
			params.MeanTimeToCompromise / 2, params.MeanTimeToCompromise,
			2 * params.MeanTimeToCompromise, 4 * params.MeanTimeToCompromise,
		}
		withR, err := with.TransientExact(times)
		if err != nil {
			return err
		}
		withoutR, err := without.TransientExact(times)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "\nmission-time reliability E[R(t)] from an all-healthy start (exact; at a multiple")
		fmt.Fprintln(w, "of 1/gamma, the value just before the clock fires):")
		fmt.Fprintln(w, "  t (s)      w/ rejuvenation   w/o proactive rejuvenation")
		for i, t := range times {
			fmt.Fprintf(w, "  %8.0f   %.6f          %.6f\n", t, withR[i], withoutR[i])
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
