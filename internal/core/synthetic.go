package core

import (
	"fmt"
	"math"

	"mvml/internal/xrand"
)

// LabeledInput is a classification request whose ground truth is known to
// the harness (never to the voter). The ID must uniquely identify the
// underlying sample: correlated-error modelling keys the shared "hardness"
// of an input on it.
type LabeledInput struct {
	ID    int
	Truth int
}

// SyntheticVersion is a statistical stand-in for a trained classifier: it
// errs with probability p when healthy and p′ when compromised, and its
// errors are correlated across the ensemble with dependency α, reproducing
// the error structure the paper measures on real models (Eq. 8). Errors on
// "hard" inputs (the shared failure component) yield the same wrong label in
// every version — the common-mode behaviour that defeats majority voting —
// while independent errors yield version-specific wrong labels.
type SyntheticVersion struct {
	name       string
	classes    int
	sharedSeed uint64
	// Mixture parameters: a version errs on an input when the input's
	// shared hardness draw falls below c, or its private draw falls
	// below q. Healthy and compromised states use separately calibrated
	// (c, q) pairs.
	cHealthy, qHealthy         float64
	cCompromised, qCompromised float64

	compromised bool
}

var _ Version[LabeledInput, int] = (*SyntheticVersion)(nil)

// mixtureParams solves c + (1-c)q = p and c + (1-c)q² = αp for the shared
// (c) and private (q) error components, so that the marginal error
// probability is p and the pairwise error-set overlap is α.
func mixtureParams(p, alpha float64) (c, q float64, err error) {
	if p <= 0 {
		return 0, 0, nil
	}
	if p >= 1 {
		return 1, 0, nil
	}
	disc := (1-alpha*p)*(1-alpha*p) - 4*(1-p)*p*(1-alpha)
	if disc < 0 {
		return 0, 0, fmt.Errorf("core: no error mixture for p=%v, alpha=%v", p, alpha)
	}
	q = ((1 - alpha*p) - math.Sqrt(disc)) / (2 * (1 - p))
	if q < 0 {
		q = 0
	}
	if q >= 1 {
		// Requires negative correlation (alpha*p < p*p), which a shared
		// failure component cannot express.
		return 0, 0, fmt.Errorf("core: no error mixture for p=%v, alpha=%v (alpha < p)", p, alpha)
	}
	c = (p - q) / (1 - q)
	if c < 0 || c > 1 {
		return 0, 0, fmt.Errorf("core: infeasible shared component %v for p=%v, alpha=%v", c, p, alpha)
	}
	return c, q, nil
}

// SyntheticEnsembleConfig parameterises NewSyntheticEnsemble.
type SyntheticEnsembleConfig struct {
	// Versions is the ensemble size.
	Versions int
	// Classes is the label-space size (>= 2).
	Classes int
	// P and PPrime are the healthy and compromised error probabilities.
	P, PPrime float64
	// Alpha is the target pairwise error dependency.
	Alpha float64
	// Seed determines all error draws.
	Seed uint64
}

// NewSyntheticEnsemble builds n synthetic versions sharing a common-mode
// error component calibrated so that each version errs with probability P
// (P′ when compromised) and pairwise error sets overlap by ≈Alpha.
func NewSyntheticEnsemble(cfg SyntheticEnsembleConfig) ([]Version[LabeledInput, int], error) {
	if cfg.Versions < 1 {
		return nil, fmt.Errorf("core: ensemble needs at least 1 version, got %d", cfg.Versions)
	}
	if cfg.Classes < 2 {
		return nil, fmt.Errorf("core: ensemble needs at least 2 classes, got %d", cfg.Classes)
	}
	if cfg.P > cfg.PPrime {
		return nil, fmt.Errorf("core: p (%v) must not exceed p' (%v)", cfg.P, cfg.PPrime)
	}
	ch, qh, err := mixtureParams(cfg.P, cfg.Alpha)
	if err != nil {
		return nil, err
	}
	cc, qc, err := mixtureParams(cfg.PPrime, cfg.Alpha)
	if err != nil {
		return nil, err
	}
	out := make([]Version[LabeledInput, int], 0, cfg.Versions)
	for i := 0; i < cfg.Versions; i++ {
		out = append(out, &SyntheticVersion{
			name:         fmt.Sprintf("synthetic-v%d", i+1),
			classes:      cfg.Classes,
			sharedSeed:   cfg.Seed,
			cHealthy:     ch,
			qHealthy:     qh,
			cCompromised: cc,
			qCompromised: qc,
		})
	}
	return out, nil
}

// Name implements Version.
func (v *SyntheticVersion) Name() string { return v.name }

// Compromise implements Version: the error rate jumps to p′.
func (v *SyntheticVersion) Compromise() error {
	v.compromised = true
	return nil
}

// Restore implements Version: rejuvenation reloads the pristine behaviour.
func (v *SyntheticVersion) Restore() error {
	v.compromised = false
	return nil
}

// Infer implements Version. The output is deterministic per
// (input, version, behaviour mode).
func (v *SyntheticVersion) Infer(in LabeledInput) (int, error) {
	if in.Truth < 0 || in.Truth >= v.classes {
		return 0, fmt.Errorf("core: truth label %d outside [0,%d)", in.Truth, v.classes)
	}
	c, q := v.cHealthy, v.qHealthy
	if v.compromised {
		c, q = v.cCompromised, v.qCompromised
	}
	shared := xrand.New(v.sharedSeed).Split("input", uint64(in.ID))
	hardness := shared.Float64()
	commonWrong := v.wrongLabel(in.Truth, shared)
	if hardness < c {
		// Common-mode failure: every errant version yields the same
		// wrong label.
		return commonWrong, nil
	}
	// q is already the conditional private-error probability given the
	// input is not hard (mixtureParams solves c + (1-c)q = p).
	private := xrand.New(v.sharedSeed).Split(v.name, uint64(in.ID))
	if private.Float64() < q {
		// Independent failure, version-specific wrong label.
		return v.wrongLabel(in.Truth, private), nil
	}
	return in.Truth, nil
}

func (v *SyntheticVersion) wrongLabel(truth int, r *xrand.Rand) int {
	w := r.Intn(v.classes - 1)
	if w >= truth {
		w++
	}
	return w
}
