package reliability

import (
	"math"
	"testing"
	"testing/quick"

	"mvml/internal/core"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestTableIIIStateReliabilities reproduces the paper's Table III: the
// reliability function value for every reachable (i,j,k) state at the
// parameters estimated from the GTSRB experiment.
func TestTableIIIStateReliabilities(t *testing.T) {
	pr := DefaultParams()
	cases := []struct {
		s    core.State
		want float64
	}{
		{core.State{Healthy: 3}, 0.988626295},
		{core.State{Healthy: 2, NonFunctional: 1}, 0.976732729},
		{core.State{Healthy: 2, Compromised: 1}, 0.881542506},
		{core.State{Healthy: 1, NonFunctional: 2}, 0.937107416},
		{core.State{Healthy: 1, Compromised: 1, NonFunctional: 1}, 0.943896878},
		{core.State{Healthy: 1, Compromised: 2}, 0.815870804},
		{core.State{Compromised: 3}, 0.926682718},
		{core.State{Compromised: 2, NonFunctional: 1}, 0.911061026},
		{core.State{Compromised: 1, NonFunctional: 2}, 0.759593560},
	}
	for _, c := range cases {
		got, err := pr.StateReliability(c.s)
		if err != nil {
			t.Fatalf("state %v: %v", c.s, err)
		}
		if !almostEqual(got, c.want, 2e-5) {
			t.Errorf("R%v = %.9f, want %.9f (paper Table III)", c.s, got, c.want)
		}
	}
}

func TestStateReliabilityZeroFunctional(t *testing.T) {
	pr := DefaultParams()
	for _, s := range []core.State{{NonFunctional: 3}, {NonFunctional: 1}, {NonFunctional: 2}} {
		got, err := pr.StateReliability(s)
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Errorf("R%v = %v, want 0", s, got)
		}
	}
}

func TestStateReliabilityErrors(t *testing.T) {
	pr := DefaultParams()
	if _, err := pr.StateReliability(core.State{Healthy: -1}); err == nil {
		t.Fatal("expected error for negative count")
	}
	if _, err := pr.StateReliability(core.State{Healthy: 4}); err == nil {
		t.Fatal("expected error for >3 functional modules")
	}
}

func TestStateReliabilityOrdering(t *testing.T) {
	// More compromised modules must never increase reliability, and the
	// all-healthy 3-version state must beat the all-healthy 2-version
	// state (full masking).
	pr := DefaultParams()
	r300, _ := pr.StateReliability(core.State{Healthy: 3})
	r210, _ := pr.StateReliability(core.State{Healthy: 2, Compromised: 1})
	r120, _ := pr.StateReliability(core.State{Healthy: 1, Compromised: 2})
	r030, _ := pr.StateReliability(core.State{Compromised: 3})
	if !(r300 > r210 && r210 > r120) {
		t.Fatalf("reliability should degrade with compromises: %v %v %v %v", r300, r210, r120, r030)
	}
	r200, _ := pr.StateReliability(core.State{Healthy: 2})
	if r300 <= r200 {
		t.Fatalf("3-version all-healthy (%v) should beat 2-version all-healthy (%v)", r300, r200)
	}
}

func TestEgeFailureProbability(t *testing.T) {
	// α = 1 degenerates to fully dependent: F = p.
	if got := EgeFailureProbability(0.1, 1); !almostEqual(got, 0.1, 1e-12) {
		t.Fatalf("F(p=0.1, α=1) = %v, want 0.1", got)
	}
	// α = 0 means fully independent errors: F = 0 in this model.
	if got := EgeFailureProbability(0.1, 0); got != 0 {
		t.Fatalf("F(p=0.1, α=0) = %v, want 0", got)
	}
	// Monotone in α over the small-p regime.
	if EgeFailureProbability(0.05, 0.3) >= EgeFailureProbability(0.05, 0.9) {
		t.Fatal("failure probability should grow with dependency")
	}
}

func TestWenMachidaFailureProbability(t *testing.T) {
	// Symmetric case reduces towards Eq. 1 structure: a12=a13=a23=α.
	p, a := 0.06, 0.37
	got := WenMachidaFailureProbability(p, p, p, a, a, a)
	want := a*p + a*p + a*p - 2*a*a*p
	if !almostEqual(got, want, 1e-12) {
		t.Fatalf("F = %v, want %v", got, want)
	}
	// Zero dependency -> zero failure probability.
	if got := WenMachidaFailureProbability(0.1, 0.2, 0.3, 0, 0, 0); got != 0 {
		t.Fatalf("independent case F = %v, want 0", got)
	}
}

func TestExpectedReliability(t *testing.T) {
	pr := DefaultParams()
	pi := map[core.State]float64{
		{Healthy: 1}:     0.5,
		{Compromised: 1}: 0.5,
	}
	got, err := ExpectedReliability(pi, pr)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*(1-pr.P) + 0.5*(1-pr.PPrime)
	if !almostEqual(got, want, 1e-12) {
		t.Fatalf("E[R] = %v, want %v", got, want)
	}
}

func TestExpectedReliabilityRejectsBadDistribution(t *testing.T) {
	pr := DefaultParams()
	if _, err := ExpectedReliability(map[core.State]float64{{Healthy: 1}: 0.4}, pr); err == nil {
		t.Fatal("expected error for non-normalised distribution")
	}
	if _, err := ExpectedReliability(map[core.State]float64{{Healthy: 1}: -1, {Compromised: 1}: 2}, pr); err == nil {
		t.Fatal("expected error for negative probability")
	}
}

func TestErrorProbabilityMatchesPaper(t *testing.T) {
	// Table II healthy accuracies -> p = 0.062892584.
	healthy := []float64{0.960095012, 0.920981789, 0.930245447}
	p, err := ErrorProbability(healthy)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(p, 0.062892584, 1e-8) {
		t.Fatalf("p = %.9f, want 0.062892584", p)
	}
	compromised := []float64{0.755423595, 0.772050673, 0.751306413}
	pp, err := ErrorProbability(compromised)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(pp, 0.240406440, 1e-8) {
		t.Fatalf("p' = %.9f, want 0.240406440", pp)
	}
}

func TestErrorProbabilityErrors(t *testing.T) {
	if _, err := ErrorProbability(nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := ErrorProbability([]float64{1.2}); err == nil {
		t.Fatal("expected error for accuracy > 1")
	}
}

func TestAlphaPairwise(t *testing.T) {
	e1 := map[int]bool{1: true, 2: true, 3: true, 4: true}
	e2 := map[int]bool{3: true, 4: true, 5: true}
	// intersection {3,4} = 2, max size = 4.
	if got := AlphaPairwise(e1, e2); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("alpha = %v, want 0.5", got)
	}
	if got := AlphaPairwise(e2, e1); !almostEqual(got, 0.5, 1e-12) {
		t.Fatal("alpha should be symmetric")
	}
	if got := AlphaPairwise(nil, nil); got != 0 {
		t.Fatalf("alpha of empty sets = %v, want 0", got)
	}
	if got := AlphaPairwise(e1, e1); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("alpha of identical sets = %v, want 1", got)
	}
	// Disjoint sets.
	e3 := map[int]bool{99: true}
	if got := AlphaPairwise(e1, e3); got != 0 {
		t.Fatalf("alpha of disjoint sets = %v, want 0", got)
	}
}

func TestAlphaThreeVersion(t *testing.T) {
	e1 := map[int]bool{1: true, 2: true}
	e2 := map[int]bool{2: true, 3: true}
	e3 := map[int]bool{1: true, 3: true}
	// Each pair: |∩|=1, max=2 -> 0.5; mean = 0.5.
	if got := AlphaThreeVersion(e1, e2, e3); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("three-version alpha = %v, want 0.5", got)
	}
}

func TestPropertyAlphaInUnitInterval(t *testing.T) {
	f := func(a, b []uint8) bool {
		e1 := map[int]bool{}
		e2 := map[int]bool{}
		for _, v := range a {
			e1[int(v)] = true
		}
		for _, v := range b {
			e2[int(v)] = true
		}
		al := AlphaPairwise(e1, e2)
		return al >= 0 && al <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := good
	bad.P = 0.5
	bad.PPrime = 0.1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for p > p'")
	}
	bad2 := good
	bad2.RejuvenationInterval = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected error for zero interval")
	}
	bad3 := good
	bad3.Alpha = 1.5
	if err := bad3.Validate(); err == nil {
		t.Fatal("expected error for alpha > 1")
	}
}

func TestBoundaries(t *testing.T) {
	pr := DefaultParams()
	if err := pr.CheckBoundary2v(); err != nil {
		t.Fatalf("default params violate 2v boundary: %v", err)
	}
	if err := pr.CheckBoundary3v(); err != nil {
		t.Fatalf("default params violate 3v boundary: %v", err)
	}
	extreme := pr
	extreme.P = 0.9
	extreme.PPrime = 0.95
	extreme.Alpha = 0.0
	if err := extreme.CheckBoundary2v(); err == nil {
		t.Fatal("expected 2v boundary violation for p=0.9, α=0")
	}
	if err := extreme.CheckBoundary3v(); err == nil {
		t.Fatal("expected 3v boundary violation for p=0.9, α=0")
	}
}
