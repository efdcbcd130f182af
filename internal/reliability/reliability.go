// Package reliability implements the paper's reliability theory for
// multi-version ML systems: the dependent-failure models of Eq. 1 and Eq. 2,
// the state reliability matrices R_f2 (Eq. 4) and R_f3 (Eq. 5), the
// parameter boundaries, the expected system reliability of Eq. 3, and the
// empirical estimation of the parameters p, p′ and α from model accuracies
// and error sets (Eqs. 6–9). dspn.go adds the DSPN reliability models of
// Figs. 2 and 3.
package reliability

import (
	"fmt"
	"math"
)

// Params bundles the model parameters of the paper's Table IV.
type Params struct {
	// P is the output failure probability of a healthy module.
	P float64
	// PPrime is the output failure probability of a compromised module
	// (must exceed P).
	PPrime float64
	// Alpha is the error-probability dependency between modules.
	Alpha float64
	// MeanTimeToCompromise is 1/λc (transition Tc), seconds.
	MeanTimeToCompromise float64
	// MeanTimeToFailure is 1/λ (transition Tf), seconds.
	MeanTimeToFailure float64
	// MeanReactiveRejuvenation is 1/μ (transition Tr), seconds.
	MeanReactiveRejuvenation float64
	// MeanProactiveRejuvenation is 1/μr (transition Trj), seconds.
	MeanProactiveRejuvenation float64
	// RejuvenationInterval is 1/γ (deterministic transition Trc), seconds.
	RejuvenationInterval float64
}

// DefaultParams returns the paper's Table IV defaults, with p, p′ and α as
// estimated from the GTSRB fault-injection experiment.
func DefaultParams() Params {
	return Params{
		P:                         0.062892584,
		PPrime:                    0.240406440,
		Alpha:                     0.369952542,
		MeanTimeToCompromise:      1523,
		MeanTimeToFailure:         1523,
		MeanReactiveRejuvenation:  0.5,
		MeanProactiveRejuvenation: 0.5,
		RejuvenationInterval:      300,
	}
}

// WithAlpha returns a copy of the parameters with the dependency degree
// replaced — how the health engine's *measured* online α is substituted for
// the offline fault-injection estimate in `mvtrace health`'s reliability
// projection. Values outside [0,1] are clamped.
func (pr Params) WithAlpha(alpha float64) Params {
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 1 {
		alpha = 1
	}
	pr.Alpha = alpha
	return pr
}

// Validate checks basic parameter sanity (probabilities in range, positive
// times, p < p′).
func (pr Params) Validate() error {
	for name, v := range map[string]float64{
		"p": pr.P, "p'": pr.PPrime, "alpha": pr.Alpha,
	} {
		if v < 0 || v > 1 {
			return fmt.Errorf("reliability: %s = %v outside [0,1]", name, v)
		}
	}
	if pr.P > pr.PPrime {
		return fmt.Errorf("reliability: p (%v) must not exceed p' (%v)", pr.P, pr.PPrime)
	}
	for name, v := range map[string]float64{
		"mean time to compromise":     pr.MeanTimeToCompromise,
		"mean time to failure":        pr.MeanTimeToFailure,
		"mean reactive rejuvenation":  pr.MeanReactiveRejuvenation,
		"mean proactive rejuvenation": pr.MeanProactiveRejuvenation,
		"rejuvenation interval":       pr.RejuvenationInterval,
	} {
		if v <= 0 {
			return fmt.Errorf("reliability: %s = %v must be positive", name, v)
		}
	}
	return nil
}

// CheckBoundary2v verifies the two-version parameter boundary
// p(2-α) <= 1 (Section V-B.2).
func (pr Params) CheckBoundary2v() error {
	if v := pr.P * (2 - pr.Alpha); v > 1 {
		return fmt.Errorf("reliability: two-version boundary violated: p(2-α) = %v > 1", v)
	}
	return nil
}

// CheckBoundary3v verifies the three-version parameter boundary
// p(3(1-α)+α²) <= 1 (Section V-B.3).
func (pr Params) CheckBoundary3v() error {
	if v := pr.P * (3*(1-pr.Alpha) + pr.Alpha*pr.Alpha); v > 1 {
		return fmt.Errorf("reliability: three-version boundary violated: p(3(1-α)+α²) = %v > 1", v)
	}
	return nil
}

// EgeFailureProbability is Eq. 1: the failure probability of a three-version
// system with identical per-version error probability p and dependency α.
func EgeFailureProbability(p, alpha float64) float64 {
	return 3*alpha*p*(1-alpha) + alpha*alpha*p
}

// WenMachidaFailureProbability is Eq. 2: the failure probability of a
// three-version ML system with per-model error probabilities p1..p3 and
// pairwise error-set intersections a12, a13, a23.
func WenMachidaFailureProbability(p1, p2, _ float64, a12, a13, a23 float64) float64 {
	return a12*p1 + a13*p1 + a23*p2 - 2*a12*a13*p1
}

// State identifies a system state by the number of modules that are healthy
// (i), compromised-but-functional (j) and non-functional (k) — the (i, j, k)
// triples of Section V-B. Modules undergoing rejuvenation count as
// non-functional.
type State struct {
	Healthy       int
	Compromised   int
	NonFunctional int
}

func (s State) String() string {
	return fmt.Sprintf("(%d,%d,%d)", s.Healthy, s.Compromised, s.NonFunctional)
}

// StateReliability evaluates the reliability reward R_{i,j,k} for a state,
// i.e. the entries of the matrices R_f2 (Eq. 4) and R_f3 (Eq. 5) plus the
// single-version values. The value depends only on (i, j): k non-functional
// modules simply degrade the system to an (i + j)-version one. A state with
// no functional modules has reliability 0.
func (pr Params) StateReliability(s State) (float64, error) {
	if s.Healthy < 0 || s.Compromised < 0 || s.NonFunctional < 0 {
		return 0, fmt.Errorf("reliability: negative module count in state %v", s)
	}
	r, err := pr.stateReliabilityRaw(s)
	if err != nil {
		return 0, err
	}
	// The paper's mixed-state formulas (the α(p+p')(1-(p+p')/2) term) can
	// leave [0,1] outside their validity domain (p+p' > 1 with large α);
	// reliability is a probability, so truncate there. All of the paper's
	// own parameter ranges stay strictly inside the domain.
	if r < 0 {
		return 0, nil
	}
	if r > 1 {
		return 1, nil
	}
	return r, nil
}

func (pr Params) stateReliabilityRaw(s State) (float64, error) {
	p, pp, a := pr.P, pr.PPrime, pr.Alpha
	i, j := s.Healthy, s.Compromised
	switch i + j {
	case 0:
		return 0, nil
	case 1:
		if i == 1 {
			return 1 - p, nil
		}
		return 1 - pp, nil
	case 2:
		switch i {
		case 2:
			return 1 - a*p, nil
		case 1:
			return 1 - ((p+pp)/2)*a, nil
		default:
			return 1 - a*pp, nil
		}
	case 3:
		mixed := a * (p + pp) * (1 - (p+pp)/2)
		switch i {
		case 3:
			return 1 - (3*a*p*(1-a)+a*a)*p, nil
		case 2:
			return 1 - (a*p + mixed), nil
		case 1:
			return 1 - (a*pp + mixed), nil
		default:
			return 1 - (3*a*pp*(1-a)+a*a)*pp, nil
		}
	default:
		return 0, fmt.Errorf("reliability: no reliability function for %d functional modules (state %v)", i+j, s)
	}
}

// ExpectedReliability is Eq. 3: the steady-state expectation of the state
// reliabilities under a state distribution π.
func ExpectedReliability(pi map[State]float64, pr Params) (float64, error) {
	var total, mass float64
	for s, prob := range pi {
		if prob < 0 {
			return 0, fmt.Errorf("reliability: negative probability %v for state %v", prob, s)
		}
		r, err := pr.StateReliability(s)
		if err != nil {
			return 0, err
		}
		total += prob * r
		mass += prob
	}
	if math.Abs(mass-1) > 1e-6 {
		return 0, fmt.Errorf("reliability: state probabilities sum to %v, want 1", mass)
	}
	return total, nil
}

// ErrorProbability is Eq. 6/7: the complement of the mean accuracy over a
// set of models.
func ErrorProbability(accuracies []float64) (float64, error) {
	if len(accuracies) == 0 {
		return 0, fmt.Errorf("reliability: no accuracies given")
	}
	var sum float64
	for _, a := range accuracies {
		if a < 0 || a > 1 {
			return 0, fmt.Errorf("reliability: accuracy %v outside [0,1]", a)
		}
		sum += a
	}
	return 1 - sum/float64(len(accuracies)), nil
}

// AlphaPairwise is Eq. 8: the error-set intersection ratio
// |Ei ∩ Ej| / max(|Ei|, |Ej|) for two models' error sets (sets of
// misclassified sample indices). Two empty error sets have dependency 0.
func AlphaPairwise(ei, ej map[int]bool) float64 {
	maxLen := len(ei)
	if len(ej) > maxLen {
		maxLen = len(ej)
	}
	if maxLen == 0 {
		return 0
	}
	small, large := ei, ej
	if len(ej) < len(ei) {
		small, large = ej, ei
	}
	inter := 0
	for k := range small {
		if large[k] {
			inter++
		}
	}
	return float64(inter) / float64(maxLen)
}

// AlphaThreeVersion is Eq. 9: the mean of the three pairwise dependencies.
func AlphaThreeVersion(e1, e2, e3 map[int]bool) float64 {
	return (AlphaPairwise(e1, e2) + AlphaPairwise(e1, e3) + AlphaPairwise(e2, e3)) / 3
}
