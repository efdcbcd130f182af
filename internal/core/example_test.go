package core_test

import (
	"fmt"
	"sort"

	"mvml/internal/core"
	"mvml/internal/reliability"
	"mvml/internal/xrand"
)

// Example_quickstart builds a three-version ML system with a majority voter
// and time-triggered proactive rejuvenation, runs it against a stream of
// classification requests while fault processes compromise the versions, and
// compares the measured output reliability with and without rejuvenation.
func Example_quickstart() {
	// Three synthetic classifier versions calibrated to the paper's fitted
	// parameters: they err with probability p when healthy and p' when
	// compromised, with pairwise error dependency alpha.
	ensembleCfg := core.SyntheticEnsembleConfig{
		Versions: 3,
		Classes:  43,
		P:        0.0629,
		PPrime:   0.2404,
		Alpha:    0.3700,
		Seed:     38,
	}

	// Fault and rejuvenation timing, scaled down so state changes happen
	// within the example (the paper's Table IV uses 1523 s / 300 s).
	faults := core.Config{
		MeanTimeToCompromise:      60,
		MeanTimeToFailure:         60,
		MeanReactiveRejuvenation:  0.5,
		MeanProactiveRejuvenation: 0.5,
		RejuvenationInterval:      15,
	}
	noRejuvenation := faults
	noRejuvenation.RejuvenationInterval = 0

	const (
		requests = 20_000
		period   = 0.05 // one inference every 50 ms of simulated time
	)

	for _, arm := range []struct {
		name string
		cfg  core.Config
	}{
		{"with proactive rejuvenation", faults},
		{"without proactive rejuvenation", noRejuvenation},
	} {
		versions, err := core.NewSyntheticEnsemble(ensembleCfg)
		if err != nil {
			panic(err)
		}
		sys, err := core.NewSystem[core.LabeledInput, int](
			versions, core.NewEqualityVoter[int](), arm.cfg, xrand.New(7))
		if err != nil {
			panic(err)
		}

		inputs := xrand.New(99)
		correct, wrong := 0, 0
		for i := 0; i < requests; i++ {
			truth := inputs.Intn(ensembleCfg.Classes)
			decision, _, err := sys.Infer(float64(i)*period, core.LabeledInput{ID: i, Truth: truth})
			if err != nil {
				panic(err)
			}
			switch {
			case decision.Skipped:
				// The voter safely skipped (rule R.2): not an error.
			case decision.Value == truth:
				correct++
			default:
				wrong++
			}
		}
		stats := sys.Stats()
		fmt.Printf("%s:\n", arm.name)
		fmt.Printf("  output reliability: %.4f (correct %d, wrong %d, skipped %d)\n",
			float64(correct)/float64(requests), correct, wrong, stats.Skips)
		fmt.Printf("  skip ratio: %.4f\n", stats.SkipRatio())
		fmt.Printf("  time in each (healthy,compromised,down) state:\n")
		occupancy := sys.Occupancy()
		states := make([]reliability.State, 0, len(occupancy))
		for state := range occupancy {
			states = append(states, state)
		}
		sort.Slice(states, func(i, j int) bool { return states[i].String() > states[j].String() })
		for _, state := range states {
			if frac := occupancy[state]; frac > 0.005 {
				fmt.Printf("    %v  %.3f\n", state, frac)
			}
		}
	}
	// Output:
	// with proactive rejuvenation:
	//   output reliability: 0.9648 (correct 19296, wrong 463, skipped 241)
	//   skip ratio: 0.0120
	//   time in each (healthy,compromised,down) state:
	//     (3,0,0)  0.813
	//     (2,1,0)  0.129
	//     (2,0,1)  0.021
	//     (1,2,0)  0.032
	// without proactive rejuvenation:
	//   output reliability: 0.9231 (correct 18462, wrong 749, skipped 789)
	//   skip ratio: 0.0394
	//   time in each (healthy,compromised,down) state:
	//     (3,0,0)  0.195
	//     (2,1,0)  0.348
	//     (1,2,0)  0.296
	//     (0,3,0)  0.153
}
