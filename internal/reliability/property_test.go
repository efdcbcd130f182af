package reliability

import (
	"testing"
	"testing/quick"

	"mvml/internal/core"
)

// fuzzParams maps raw fuzz input into a valid parameter set.
func fuzzParams(pRaw, ppRaw, aRaw uint16) Params {
	pr := DefaultParams()
	pr.P = 0.3 * float64(pRaw) / 65535
	pr.PPrime = pr.P + (0.99-pr.P)*float64(ppRaw)/65535
	pr.Alpha = float64(aRaw) / 65535
	return pr
}

// TestPropertyStateReliabilityInUnitInterval: every reachable state's
// reliability is a probability for any valid parameter set.
func TestPropertyStateReliabilityInUnitInterval(t *testing.T) {
	f := func(pRaw, ppRaw, aRaw uint16) bool {
		pr := fuzzParams(pRaw, ppRaw, aRaw)
		for i := 0; i <= 3; i++ {
			for j := 0; i+j <= 3; j++ {
				for k := 0; i+j+k <= 3; k++ {
					r, err := pr.StateReliability(core.State{Healthy: i, Compromised: j, NonFunctional: k})
					if err != nil {
						return false
					}
					if r < 0 || r > 1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAllHealthyBeatsAllCompromised: with every module in the same
// state, the all-healthy configuration is at least as reliable as the
// all-compromised one for any functional count. (Note that full per-module
// monotonicity does NOT hold in the paper's model: its own Table III has
// R(1,2,0) = 0.816 < R(0,3,0) = 0.927, because the mixed-state formulas use
// a coarser dependency term than the corner-state ones — a quirk this
// reproduction preserves.)
func TestPropertyAllHealthyBeatsAllCompromised(t *testing.T) {
	f := func(pRaw, ppRaw, aRaw uint16) bool {
		pr := fuzzParams(pRaw, ppRaw, aRaw)
		for n := 1; n <= 3; n++ {
			healthy, err := pr.StateReliability(core.State{Healthy: n})
			if err != nil {
				return false
			}
			compromised, err := pr.StateReliability(core.State{Compromised: n})
			if err != nil {
				return false
			}
			if healthy < compromised-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyReliabilityMonotoneInP: for all-healthy states, reliability is
// non-increasing in p.
func TestPropertyReliabilityMonotoneInP(t *testing.T) {
	f := func(pRaw, aRaw uint16, deltaRaw uint8) bool {
		pr := fuzzParams(pRaw, 65535, aRaw)
		delta := 0.001 + 0.1*float64(deltaRaw)/255
		higher := pr
		higher.P = pr.P + delta
		if higher.P >= higher.PPrime {
			return true
		}
		for _, s := range []core.State{{Healthy: 1}, {Healthy: 2}, {Healthy: 3}} {
			a, err := pr.StateReliability(s)
			if err != nil {
				return false
			}
			b, err := higher.StateReliability(s)
			if err != nil {
				return false
			}
			if b > a+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyExactSolverProducesDistribution: for any valid parameters,
// the exact solution of the Fig. 2 model is a probability distribution over
// states with the right module count.
func TestPropertyExactSolverProducesDistribution(t *testing.T) {
	f := func(pRaw, ppRaw, aRaw uint16, mtRaw uint8) bool {
		pr := fuzzParams(pRaw, ppRaw, aRaw)
		pr.MeanTimeToCompromise = 1 + float64(mtRaw)*10
		pr.MeanTimeToFailure = 1 + float64(mtRaw)*5
		model, err := NewModel(3, pr, false)
		if err != nil {
			return false
		}
		res, err := model.SolveExact()
		if err != nil {
			return false
		}
		var total float64
		for s, p := range res.StateProbs {
			if p < -1e-12 || s.Healthy+s.Compromised+s.NonFunctional != 3 {
				return false
			}
			total += p
		}
		if total < 0.999999 || total > 1.000001 {
			return false
		}
		return res.Expected >= 0 && res.Expected <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
