package core_test

// The runtime checked against the paper's reliability model. reliability
// keys its model on core.State, so these tests live outside package core.

import (
	"math"
	"testing"

	"mvml/internal/core"
	"mvml/internal/reliability"
	"mvml/internal/xrand"
)

// TestOccupancyMatchesDSPN is the architecture-to-model cross-validation:
// the runtime system's empirical (i,j,k) occupancy must match the steady
// state of the Fig. 2 DSPN under the same parameters.
func TestOccupancyMatchesDSPN(t *testing.T) {
	params := reliability.Params{
		P: 0.06, PPrime: 0.24, Alpha: 0.37,
		MeanTimeToCompromise:      50,
		MeanTimeToFailure:         50,
		MeanReactiveRejuvenation:  0.5,
		MeanProactiveRejuvenation: 0.5,
		RejuvenationInterval:      10,
	}
	model, err := reliability.NewModel(3, params, false)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := model.SolveExact()
	if err != nil {
		t.Fatal(err)
	}

	cfg := core.Config{
		MeanTimeToCompromise:     params.MeanTimeToCompromise,
		MeanTimeToFailure:        params.MeanTimeToFailure,
		MeanReactiveRejuvenation: params.MeanReactiveRejuvenation,
	}
	sys, err := core.NewSystem[int, int](core.ConstVersions(3), core.NewEqualityVoter[int](), cfg, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Advance(200_000); err != nil {
		t.Fatal(err)
	}
	occ := sys.Occupancy()
	for st, want := range exact.StateProbs {
		if want < 0.01 {
			continue // skip states too rare to estimate tightly
		}
		got := occ[st]
		if math.Abs(got-want) > 0.02 {
			t.Errorf("state %v: runtime occupancy %.4f vs DSPN %.4f", st, got, want)
		}
	}
}

// TestOccupancyMatchesProactiveDSPN cross-validates the proactive
// rejuvenation path against the Fig. 3 DSPN solved exactly. Over seeds 1–20
// the worst state of a 500,000 s run is off by at most 0.0075; the bound is
// twice that.
func TestOccupancyMatchesProactiveDSPN(t *testing.T) {
	params := reliability.Params{
		P: 0.06, PPrime: 0.24, Alpha: 0.37,
		MeanTimeToCompromise:      50,
		MeanTimeToFailure:         50,
		MeanReactiveRejuvenation:  0.5,
		MeanProactiveRejuvenation: 0.5,
		RejuvenationInterval:      10,
	}
	model, err := reliability.NewModel(3, params, true)
	if err != nil {
		t.Fatal(err)
	}
	dspn, err := model.SolveExact()
	if err != nil {
		t.Fatal(err)
	}

	cfg := core.Config{
		MeanTimeToCompromise:      params.MeanTimeToCompromise,
		MeanTimeToFailure:         params.MeanTimeToFailure,
		MeanReactiveRejuvenation:  params.MeanReactiveRejuvenation,
		MeanProactiveRejuvenation: params.MeanProactiveRejuvenation,
		RejuvenationInterval:      params.RejuvenationInterval,
		Selection:                 core.SelectByCount,
	}
	sys, err := core.NewSystem[int, int](core.ConstVersions(3), core.NewEqualityVoter[int](), cfg, xrand.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Advance(500_000); err != nil {
		t.Fatal(err)
	}
	occ := sys.Occupancy()
	for st, want := range dspn.StateProbs {
		if want < 0.02 {
			continue
		}
		got := occ[st]
		if math.Abs(got-want) > 0.015 {
			t.Errorf("state %v: runtime occupancy %.4f vs DSPN %.4f", st, got, want)
		}
	}
}

// errorSets runs every version over n inputs and returns the error sets.
func errorSets(t *testing.T, versions []core.Version[core.LabeledInput, int], n int) []map[int]bool {
	t.Helper()
	r := xrand.New(123)
	sets := make([]map[int]bool, len(versions))
	for i := range sets {
		sets[i] = make(map[int]bool)
	}
	for id := 0; id < n; id++ {
		truth := r.Intn(43)
		for vi, v := range versions {
			out, err := v.Infer(core.LabeledInput{ID: id, Truth: truth})
			if err != nil {
				t.Fatal(err)
			}
			if out != truth {
				sets[vi][id] = true
			}
		}
	}
	return sets
}

func TestSyntheticEnsembleCalibration(t *testing.T) {
	versions, err := core.NewSyntheticEnsemble(core.EnsembleConfig())
	if err != nil {
		t.Fatal(err)
	}
	const n = 40_000
	sets := errorSets(t, versions, n)

	// Marginal error probability matches p.
	for i, set := range sets {
		got := float64(len(set)) / n
		if math.Abs(got-0.0629) > 0.006 {
			t.Errorf("version %d healthy error rate %.4f, want ≈0.0629", i, got)
		}
	}
	// Pairwise α matches the target.
	alpha := reliability.AlphaThreeVersion(sets[0], sets[1], sets[2])
	if math.Abs(alpha-0.3700) > 0.04 {
		t.Errorf("measured alpha %.4f, want ≈0.37", alpha)
	}
}

// TestSyntheticSystemMatchesReliabilityModel runs the full architecture
// (synthetic ensemble + majority voter, all modules healthy) over many
// inputs and compares the empirical output reliability against the paper's
// R_{3,0,0} formula.
func TestSyntheticSystemMatchesReliabilityModel(t *testing.T) {
	cfg := core.EnsembleConfig()
	versions, err := core.NewSyntheticEnsemble(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem[core.LabeledInput, int](versions, core.NewEqualityVoter[int](), core.Config{DisableFaults: true}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	const n = 30_000
	r := xrand.New(99)
	correct := 0
	for id := 0; id < n; id++ {
		truth := r.Intn(cfg.Classes)
		d, _, err := sys.Infer(float64(id), core.LabeledInput{ID: id, Truth: truth})
		if err != nil {
			t.Fatal(err)
		}
		if !d.Skipped && d.Value == truth {
			correct++
		}
	}
	got := float64(correct) / n
	// Under the calibrated mixture, the voter outputs the truth iff the
	// input is not common-mode hard and at least 2 of 3 private draws are
	// correct: (1-c)·((1-q)³ + 3(1-q)²q).
	c, q, err := core.MixtureParams(cfg.P, cfg.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	want := (1 - c) * ((1-q)*(1-q)*(1-q) + 3*(1-q)*(1-q)*q)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("empirical 3-version reliability %.4f vs mixture prediction %.4f", got, want)
	}
	// The triple-version system must beat a single version (1-p), the
	// qualitative claim behind the paper's architecture.
	if got <= 1-cfg.P {
		t.Fatalf("3-version reliability %.4f does not beat single version %.4f", got, 1-cfg.P)
	}
	// And the paper's closed-form R(3,0,0) is an upper-side model of the
	// same quantity: it should sit within a few points of the empirical
	// rate.
	params := reliability.Params{P: cfg.P, PPrime: cfg.PPrime, Alpha: cfg.Alpha,
		MeanTimeToCompromise: 1, MeanTimeToFailure: 1,
		MeanReactiveRejuvenation: 1, MeanProactiveRejuvenation: 1, RejuvenationInterval: 1}
	model, err := params.StateReliability(core.State{Healthy: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-model) > 0.03 {
		t.Fatalf("empirical %.4f too far from the paper model R(3,0,0) %.4f", got, model)
	}
}
