package experiments

import (
	"fmt"

	"mvml/internal/core"
	"mvml/internal/parallel"
	"mvml/internal/xrand"
)

// The N-version study implements the paper's stated future work ("systems
// with more replicas and under different voting schemes", §IX): it runs
// synthetic ensembles of one to five versions behind majority, plurality
// and unanimous voters, with and without proactive rejuvenation, and
// measures the empirical output reliability of the full runtime system.

// NVersionStudyConfig parameterises RunNVersionStudy.
type NVersionStudyConfig struct {
	// MaxVersions is the largest ensemble size (>= 1).
	MaxVersions int
	// Requests is the number of inference rounds per configuration.
	Requests int
	// Period is the simulated time between requests (s).
	Period float64
	// Ensemble sets the per-version error behaviour (Versions is
	// overridden per row).
	Ensemble core.SyntheticEnsembleConfig
	// System sets fault/rejuvenation timing; the without arm clears the
	// proactive interval.
	System core.Config
	// Seed drives the runs.
	Seed uint64
	// Workers bounds concurrent (ensemble size, voter) configurations
	// (<= 0 = GOMAXPROCS). Every configuration seeds its own streams from
	// Seed, so results are identical for every worker count.
	Workers int
}

// DefaultNVersionStudyConfig uses the paper's fitted error parameters and a
// fault process scaled so modules cycle through H/C/N many times per run.
func DefaultNVersionStudyConfig() NVersionStudyConfig {
	return NVersionStudyConfig{
		MaxVersions: 5,
		Requests:    60_000,
		Period:      0.05,
		Ensemble: core.SyntheticEnsembleConfig{
			Classes: 43,
			P:       0.062893,
			PPrime:  0.240406,
			Alpha:   0.369953,
			Seed:    38,
		},
		System: core.Config{
			MeanTimeToCompromise:      60,
			MeanTimeToFailure:         60,
			MeanReactiveRejuvenation:  0.5,
			MeanProactiveRejuvenation: 0.5,
			RejuvenationInterval:      15,
		},
		Seed: 7,
	}
}

// NVersionRow is one (ensemble size, voter) configuration.
type NVersionRow struct {
	Versions int
	Voter    string
	// ReliabilityWith/Without is the fraction of requests answered
	// correctly (skips are not errors but also not correct answers).
	ReliabilityWith, ReliabilityWithout float64
	// ErrorFreeWith/Without is 1 - wrong/requests: the paper's notion of
	// output reliability, under which a safe skip is not a failure (it is
	// what makes the two-version system so strong in Table V).
	ErrorFreeWith, ErrorFreeWithout float64
	// SkipWith/Without is the skip ratio of each arm.
	SkipWith, SkipWithout float64
	// DivergenceWith/Without is the share of rounds skipped on
	// disagreement; the rest of the skips had no functional version.
	DivergenceWith, DivergenceWithout float64
}

// NVersionStudyResult is the full sweep.
type NVersionStudyResult struct {
	Rows []NVersionRow
}

// voterChoices returns the voting schemes under study.
func voterChoices() []struct {
	name  string
	voter core.Voter[int]
} {
	return []struct {
		name  string
		voter core.Voter[int]
	}{
		{"majority", core.NewEqualityVoter[int]()},
		{"plurality", core.NewPluralityVoter[int]()},
		{"unanimous", core.NewUnanimousVoter[int]()},
	}
}

// RunNVersionStudy measures empirical output reliability for every
// configuration in the sweep.
func RunNVersionStudy(cfg NVersionStudyConfig) (*NVersionStudyResult, error) {
	if cfg.MaxVersions < 1 {
		return nil, fmt.Errorf("experiments: MaxVersions %d < 1", cfg.MaxVersions)
	}
	if cfg.Requests < 1 {
		return nil, fmt.Errorf("experiments: Requests %d < 1", cfg.Requests)
	}
	// Enumerate the sweep's (ensemble size, voter) configurations, then fan
	// them out. Every configuration is self-contained: it derives all of
	// its streams from fresh generators seeded by cfg.Seed and builds
	// private ensembles and voters, so the rows — collected in enumeration
	// order — are identical for every worker count.
	type rowSpec struct{ versions, voterIdx int }
	var specs []rowSpec
	for n := 1; n <= cfg.MaxVersions; n++ {
		for vi, vc := range voterChoices() {
			if n == 1 && vc.name != "majority" {
				continue // all voters coincide for a single version
			}
			specs = append(specs, rowSpec{versions: n, voterIdx: vi})
		}
	}
	rows, err := parallel.Run(xrand.New(cfg.Seed), "row", len(specs),
		parallel.Options{Workers: cfg.Workers},
		func(rep int, _ *xrand.Rand) (NVersionRow, error) {
			spec := specs[rep]
			n := spec.versions
			vc := voterChoices()[spec.voterIdx]
			row := NVersionRow{Versions: n, Voter: vc.name}
			for _, rejuvenate := range []bool{true, false} {
				sysCfg := cfg.System
				if !rejuvenate {
					sysCfg.RejuvenationInterval = 0
				}
				ensembleCfg := cfg.Ensemble
				ensembleCfg.Versions = n
				versions, err := core.NewSyntheticEnsemble(ensembleCfg)
				if err != nil {
					return NVersionRow{}, err
				}
				sys, err := core.NewSystem[core.LabeledInput, int](
					versions, vc.voter, sysCfg,
					xrand.New(cfg.Seed).Split("sys", uint64(n*10)+boolBit(rejuvenate)))
				if err != nil {
					return NVersionRow{}, err
				}
				inputs := xrand.New(cfg.Seed).Split("inputs", 0)
				correct, wrong := 0, 0
				for i := 0; i < cfg.Requests; i++ {
					truth := inputs.Intn(ensembleCfg.Classes)
					d, _, err := sys.Infer(float64(i)*cfg.Period, core.LabeledInput{ID: i, Truth: truth})
					if err != nil {
						return NVersionRow{}, err
					}
					switch {
					case d.Skipped:
					case d.Value == truth:
						correct++
					default:
						wrong++
					}
				}
				rel := float64(correct) / float64(cfg.Requests)
				errFree := 1 - float64(wrong)/float64(cfg.Requests)
				stats := sys.Stats()
				if rejuvenate {
					row.ReliabilityWith = rel
					row.ErrorFreeWith = errFree
					row.SkipWith = stats.SkipRatio()
					row.DivergenceWith = stats.DivergenceRatio()
				} else {
					row.ReliabilityWithout = rel
					row.ErrorFreeWithout = errFree
					row.SkipWithout = stats.SkipRatio()
					row.DivergenceWithout = stats.DivergenceRatio()
				}
			}
			return row, nil
		})
	if err != nil {
		return nil, err
	}
	return &NVersionStudyResult{Rows: rows}, nil
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Render formats the study.
func (r *NVersionStudyResult) Render() string {
	t := &Table{
		Title: "Extension: N-version systems and voting schemes (paper future work)",
		Headers: []string{"Versions", "Voter", "Correct w/", "Correct w/o",
			"ErrFree w/", "ErrFree w/o", "Skip w/", "Skip w/o"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.Versions), row.Voter,
			f6(row.ReliabilityWith), f6(row.ReliabilityWithout),
			f6(row.ErrorFreeWith), f6(row.ErrorFreeWithout),
			f3(row.SkipWith), f3(row.SkipWithout))
	}
	t.Notes = append(t.Notes,
		"Correct = correct answers / requests; ErrFree = 1 - wrong answers / requests",
		"(the paper's output reliability treats a safe skip as a non-failure -> ErrFree)")
	return t.String()
}
