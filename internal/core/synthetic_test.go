package core

import (
	"math"
	"testing"

	"mvml/internal/xrand"
)

func ensembleConfig() SyntheticEnsembleConfig {
	return SyntheticEnsembleConfig{
		Versions: 3,
		Classes:  43,
		P:        0.062892584,
		PPrime:   0.240406440,
		Alpha:    0.369952542,
		Seed:     38,
	}
}

func TestSyntheticEnsembleValidation(t *testing.T) {
	bad := ensembleConfig()
	bad.Versions = 0
	if _, err := NewSyntheticEnsemble(bad); err == nil {
		t.Fatal("expected error for 0 versions")
	}
	bad = ensembleConfig()
	bad.Classes = 1
	if _, err := NewSyntheticEnsemble(bad); err == nil {
		t.Fatal("expected error for 1 class")
	}
	bad = ensembleConfig()
	bad.P, bad.PPrime = 0.5, 0.1
	if _, err := NewSyntheticEnsemble(bad); err == nil {
		t.Fatal("expected error for p > p'")
	}
}

func TestSyntheticCompromisedErrorRate(t *testing.T) {
	versions, err := NewSyntheticEnsemble(ensembleConfig())
	if err != nil {
		t.Fatal(err)
	}
	v := versions[0]
	if err := v.Compromise(); err != nil {
		t.Fatal(err)
	}
	const n = 40_000
	r := xrand.New(5)
	errs := 0
	for id := 0; id < n; id++ {
		truth := r.Intn(43)
		out, err := v.Infer(LabeledInput{ID: id, Truth: truth})
		if err != nil {
			t.Fatal(err)
		}
		if out != truth {
			errs++
		}
	}
	got := float64(errs) / n
	if math.Abs(got-0.2404) > 0.01 {
		t.Fatalf("compromised error rate %.4f, want ≈0.2404", got)
	}
	// Restore brings p back down.
	if err := v.Restore(); err != nil {
		t.Fatal(err)
	}
	errs = 0
	for id := 0; id < n; id++ {
		truth := (id * 7) % 43
		out, err := v.Infer(LabeledInput{ID: id, Truth: truth})
		if err != nil {
			t.Fatal(err)
		}
		if out != truth {
			errs++
		}
	}
	if got := float64(errs) / n; got > 0.1 {
		t.Fatalf("restored error rate %.4f, want ≈0.0629", got)
	}
}

func TestSyntheticDeterministicPerInput(t *testing.T) {
	versions, err := NewSyntheticEnsemble(ensembleConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := LabeledInput{ID: 42, Truth: 7}
	a, err := versions[0].Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := versions[0].Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same input produced different outputs")
	}
}

func TestSyntheticCommonModeProducesSameWrongLabel(t *testing.T) {
	// On hard inputs every version must emit the SAME wrong label, which
	// is what defeats majority voting. Find hard inputs as those where
	// all three healthy versions err, and check label agreement.
	versions, err := NewSyntheticEnsemble(ensembleConfig())
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for id := 0; id < 20_000 && found < 50; id++ {
		truth := id % 43
		outs := make([]int, len(versions))
		allWrong := true
		for vi, v := range versions {
			out, err := v.Infer(LabeledInput{ID: id, Truth: truth})
			if err != nil {
				t.Fatal(err)
			}
			outs[vi] = out
			if out == truth {
				allWrong = false
			}
		}
		if !allWrong {
			continue
		}
		found++
		if outs[0] != outs[1] || outs[1] != outs[2] {
			t.Fatalf("input %d: common-mode errors disagree: %v", id, outs)
		}
	}
	if found == 0 {
		t.Fatal("no common-mode failures found in 20k inputs")
	}
}

func TestSyntheticRejectsBadTruth(t *testing.T) {
	versions, err := NewSyntheticEnsemble(ensembleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := versions[0].Infer(LabeledInput{ID: 1, Truth: 99}); err == nil {
		t.Fatal("expected error for out-of-range truth")
	}
}

func TestMixtureParamsEdgeCases(t *testing.T) {
	// p = 0: never errs.
	c, q, err := mixtureParams(0, 0.5)
	if err != nil || c != 0 || q != 0 {
		t.Fatalf("p=0: c=%v q=%v err=%v", c, q, err)
	}
	// alpha = 1: fully dependent, all errors common-mode.
	c, q, err = mixtureParams(0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-0.1) > 1e-9 || math.Abs(q) > 1e-9 {
		t.Fatalf("alpha=1: c=%v q=%v, want c=p, q=0", c, q)
	}
	// Consistency: c + (1-c)q == p for a general case.
	c, q, err = mixtureParams(0.2, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if p := c + (1-c)*q; math.Abs(p-0.2) > 1e-9 {
		t.Fatalf("marginal %v, want 0.2", p)
	}
	if both := c + (1-c)*q*q; math.Abs(both-0.4*0.2) > 1e-9 {
		t.Fatalf("joint %v, want %v", both, 0.4*0.2)
	}
}
