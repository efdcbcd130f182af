package reliability

import (
	"math"
	"testing"

	"mvml/internal/core"
	"mvml/internal/petri"
	"mvml/internal/xrand"
)

// TestTableVWithoutRejuvenationExact reproduces the "w/o rej." column of the
// paper's Table V with the exact CTMC solver: 0.848211 / 0.943875 /
// 0.903190 for the single-, two- and three-version systems.
func TestTableVWithoutRejuvenationExact(t *testing.T) {
	pr := DefaultParams()
	want := map[int]float64{1: 0.848211, 2: 0.943875, 3: 0.903190}
	for n := 1; n <= 3; n++ {
		model, err := NewModel(n, pr, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := model.SolveExact()
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(res.Expected, want[n], 2e-5) {
			t.Errorf("%d-version w/o rejuvenation: %.6f, want %.6f (paper Table V)",
				n, res.Expected, want[n])
		}
		// State probabilities are a distribution.
		var mass float64
		for _, p := range res.StateProbs {
			mass += p
		}
		if !almostEqual(mass, 1, 1e-9) {
			t.Errorf("%d-version state probabilities sum to %v", n, mass)
		}
	}
}

// TestTableVWithRejuvenationExact solves Fig. 3 as a Markov regenerative
// process for the "w/ rej." column of Table V: 0.920171 / 0.969077 /
// 0.954265, pinned, against the paper's TimeNET values 0.920217 / 0.967152 /
// 0.952998.
func TestTableVWithRejuvenationExact(t *testing.T) {
	pr := DefaultParams()
	want := map[int]float64{1: 0.920171, 2: 0.969077, 3: 0.954265}
	paper := map[int]float64{1: 0.920217, 2: 0.967152, 3: 0.952998}
	for n := 1; n <= 3; n++ {
		model, err := NewModel(n, pr, true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := model.SolveExact()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Expected-want[n]) > 1e-6 {
			t.Errorf("%d-version w/ rejuvenation: %.7f, want %.6f", n, res.Expected, want[n])
		}
		if math.Abs(res.Expected-paper[n]) > 0.002 {
			t.Errorf("%d-version w/ rejuvenation: %.6f, want %.6f ± 0.002 (paper Table V)", n, res.Expected, paper[n])
		}
		var mass float64
		for _, p := range res.StateProbs {
			mass += p
		}
		if !almostEqual(mass, 1, 1e-9) {
			t.Errorf("%d-version state probabilities sum to %v", n, mass)
		}
	}
}

// TestErlangCrossValidatesSimulation checks the exact proactive solution
// against the independent Erlang phase-type approximation of its clock: for
// every version count, Erlang(k) approaches the exact value from below as
// k grows.
func TestErlangCrossValidatesSimulation(t *testing.T) {
	pr := DefaultParams()
	for n := 1; n <= 3; n++ {
		model, err := NewModel(n, pr, true)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := model.SolveExact()
		if err != nil {
			t.Fatal(err)
		}
		prev := math.Inf(-1)
		for _, k := range []int{1, 2, 5, 10, 20, 40, 80} {
			erl, err := model.SolveErlang(k)
			if err != nil {
				t.Fatal(err)
			}
			if erl.Expected >= exact.Expected || erl.Expected <= prev {
				t.Errorf("%d-version Erlang(%d) = %.6f, want in (%.6f, exact %.6f)", n, k, erl.Expected, prev, exact.Expected)
			}
			prev = erl.Expected
		}
	}
}

// TestSimulationMatchesExactWithoutProactive: the Monte-Carlo replications
// of Fig. 2 contain its exact transient inside their 99.9% CIs.
func TestSimulationMatchesExactWithoutProactive(t *testing.T) {
	times := []float64{150, 1523, 6092}
	for n := 1; n <= 3; n++ {
		model, err := NewModel(n, DefaultParams(), false)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := model.TransientExact(times)
		if err != nil {
			t.Fatal(err)
		}
		cfg := petri.TransientConfig{Times: times, Replications: 1000, Level: 0.999}
		sim, err := petri.TransientRewards(model.Net, cfg, model.Reward(), xrand.New(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		for i, pt := range sim {
			if !pt.Reward.Contains(exact[i]) {
				t.Errorf("%d-version at t=%v: exact %.6f outside the replications' CI %v", n, pt.Time, exact[i], pt.Reward)
			}
		}
	}
}

func TestProactiveRejuvenationImprovesReliability(t *testing.T) {
	// The paper's headline: proactive rejuvenation helps every
	// configuration at the default parameters.
	pr := DefaultParams()
	for n := 1; n <= 3; n++ {
		without, err := NewModel(n, pr, false)
		if err != nil {
			t.Fatal(err)
		}
		r0, err := without.SolveExact()
		if err != nil {
			t.Fatal(err)
		}
		with, err := NewModel(n, pr, true)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := with.SolveExact()
		if err != nil {
			t.Fatal(err)
		}
		if r1.Expected <= r0.Expected {
			t.Errorf("%d-version: rejuvenation did not help (%.6f vs %.6f)",
				n, r1.Expected, r0.Expected)
		}
	}
}

func TestTwoVersionBeatsThreeVersion(t *testing.T) {
	// Because the 2-version voter may safely skip on disagreement, the
	// paper finds 2v > 3v with and without rejuvenation (Table V).
	pr := DefaultParams()
	two, err := NewModel(2, pr, false)
	if err != nil {
		t.Fatal(err)
	}
	three, err := NewModel(3, pr, false)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := two.SolveExact()
	if err != nil {
		t.Fatal(err)
	}
	r3, err := three.SolveExact()
	if err != nil {
		t.Fatal(err)
	}
	if r2.Expected <= r3.Expected {
		t.Fatalf("2-version (%.6f) should outperform 3-version (%.6f)", r2.Expected, r3.Expected)
	}
}

func TestNewModelValidation(t *testing.T) {
	pr := DefaultParams()
	if _, err := NewModel(0, pr, false); err == nil {
		t.Fatal("expected error for 0 modules")
	}
	if _, err := NewModel(4, pr, true); err == nil {
		t.Fatal("expected error for 4 modules")
	}
	bad := pr
	bad.MeanTimeToFailure = -1
	if _, err := NewModel(3, bad, false); err == nil {
		t.Fatal("expected error for invalid params")
	}
}

func TestStateOfCountsRejuvenatingAsNonFunctional(t *testing.T) {
	model, err := NewModel(3, DefaultParams(), true)
	if err != nil {
		t.Fatal(err)
	}
	mk := model.Net.InitialMarking()
	for i := range mk {
		// One token on each of Pmh, Pmc and Pmr, found through Count.
		probe := make(petri.Marking, len(mk))
		probe[i] = 1
		if probe.Count(model.Pmh)+probe.Count(model.Pmc)+probe.Count(model.Pmr) == 1 {
			mk[i] = 1
		}
	}
	s := model.StateOf(mk)
	if s != (core.State{Healthy: 1, Compromised: 1, NonFunctional: 1}) {
		t.Fatalf("state %v, want (1,1,1)", s)
	}
}

func TestShorterIntervalIncreasesReliability(t *testing.T) {
	// Fig. 4(a): more frequent rejuvenation keeps reliability higher.
	pr := DefaultParams()
	fast := pr
	fast.RejuvenationInterval = 60
	slow := pr
	slow.RejuvenationInterval = 2500

	solve := func(p Params) float64 {
		model, err := NewModel(3, p, true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := model.SolveExact()
		if err != nil {
			t.Fatal(err)
		}
		return res.Expected
	}
	rFast := solve(fast)
	rSlow := solve(slow)
	if rFast <= rSlow {
		t.Fatalf("interval 60s (%.6f) should beat 2500s (%.6f)", rFast, rSlow)
	}
}

func BenchmarkSolveExact3v(b *testing.B) {
	for _, proactive := range []bool{false, true} {
		model, err := NewModel(3, DefaultParams(), proactive)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(model.Net.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := model.SolveExact(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTransientReliabilityCurve: mission-time reliability starts at
// R(3,0,0), decays toward the steady state, and the rejuvenated system
// dominates the non-rejuvenated one at long mission times. The Monte-Carlo
// replications at the mission times `mvml dspn -transient` prints contain
// the exact curve inside their CIs, t = 1/γ included: both read the left
// limit there, before the clock's expiry.
func TestTransientReliabilityCurve(t *testing.T) {
	pr := DefaultParams()
	times := []float64{0, 150, 300, 761.5, 1523, 3046, 6092, 1e6}

	with, err := NewModel(3, pr, true)
	if err != nil {
		t.Fatal(err)
	}
	without, err := NewModel(3, pr, false)
	if err != nil {
		t.Fatal(err)
	}
	withR, err := with.TransientExact(times)
	if err != nil {
		t.Fatal(err)
	}
	withoutR, err := without.TransientExact(times)
	if err != nil {
		t.Fatal(err)
	}

	r300, err := pr.StateReliability(core.State{Healthy: 3})
	if err != nil {
		t.Fatal(err)
	}
	if withR[0] != r300 || withoutR[0] != r300 {
		t.Errorf("E[R(0)] = %.6f / %.6f, want R(3,0,0) = %.6f", withR[0], withoutR[0], r300)
	}
	// Right after t = 1/γ the clock has fired and a proactive
	// rejuvenation is under way: the right limit differs from the left.
	if right, err := with.TransientExact([]float64{300 + 1e-9}); err != nil || math.Abs(right[0]-withR[2]) < 1e-3 {
		t.Errorf("E[R(300+)] = %v (%v), want a jump from the left limit %.6f", right, err, withR[2])
	}
	last := len(times) - 1
	if withR[last-1] >= withR[0] || withoutR[last-1] >= withoutR[0] {
		t.Error("both curves should decay from the healthy start")
	}
	if withR[last-1] <= withoutR[last-1] {
		t.Errorf("at t=%v rejuvenation (%.6f) should dominate (%.6f)", times[last-1], withR[last-1], withoutR[last-1])
	}
	// Fig. 2's curve settles to its steady state. Fig. 3's settles to a
	// periodic regime in the clock's phase whose time average over one
	// period, here by the midpoint rule, is the steady state.
	steady, err := without.SolveExact()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(withoutR[last]-steady.Expected) > 1e-9 {
		t.Errorf("w/o: E[R(1e6)] = %.9f, want the steady state %.9f", withoutR[last], steady.Expected)
	}
	var phases []float64
	for i := 0; i < 60; i++ {
		phases = append(phases, 300*(3000+(float64(i)+0.5)/60))
	}
	period, err := with.TransientExact(phases)
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, v := range period {
		mean += v / float64(len(period))
	}
	if steady, err = with.SolveExact(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-steady.Expected) > 1e-4 {
		t.Errorf("w/: E[R] averaged over one late period = %.6f, want the steady state %.6f", mean, steady.Expected)
	}

	// A 99.9% interval per point, so that the six points miss together
	// with probability under 1%.
	cfg := petri.TransientConfig{Times: times[1:last], Replications: 2000, Level: 0.999}
	sim, err := petri.TransientRewards(with.Net, cfg, with.Reward(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range sim {
		if !pt.Reward.Contains(withR[i+1]) {
			t.Errorf("t=%v: exact %.6f outside the replications' CI %v", pt.Time, withR[i+1], pt.Reward)
		}
	}
}
