package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"mvml/internal/xrand"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 denominator = 32/7.
	want := 32.0 / 7.0
	if got := Variance(xs); !almostEqual(got, want, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if Variance(nil) != 0 || Variance([]float64{3}) != 0 {
		t.Fatal("variance of <2 samples should be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2},
	} {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", c.q, err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := Quantile([]float64{1}, 1.5); err == nil {
		t.Fatal("expected error for q > 1")
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Quantile mutated its input: %v", xs)
	}
}

func TestTCriticalKnownValues(t *testing.T) {
	// Reference values from standard t tables.
	cases := []struct {
		df    int
		level float64
		want  float64
	}{
		{1, 0.95, 12.706},
		{2, 0.95, 4.303},
		{10, 0.95, 2.228},
		{30, 0.95, 2.042},
		{10, 0.99, 3.169},
	}
	for _, c := range cases {
		got := tCritical(c.df, c.level)
		if !almostEqual(got, c.want, 0.01) {
			t.Errorf("tCritical(df=%d, %v) = %v, want %v", c.df, c.level, got, c.want)
		}
	}
}

func TestMeanCICoversTrueMean(t *testing.T) {
	// For n draws from N(10, 2), the 95% CI should contain 10 roughly 95%
	// of the time; check it does so in at least 90 of 100 replications.
	r := xrand.New(99)
	covered := 0
	for rep := 0; rep < 100; rep++ {
		xs := make([]float64, 30)
		for i := range xs {
			xs[i] = r.Normal(10, 2)
		}
		ci, err := MeanCI(xs, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if ci.Contains(10) {
			covered++
		}
	}
	if covered < 88 {
		t.Fatalf("95%% CI covered true mean only %d/100 times", covered)
	}
}

func TestMeanCIErrors(t *testing.T) {
	if _, err := MeanCI([]float64{1}, 0.95); err == nil {
		t.Fatal("expected error for single sample")
	}
	if _, err := MeanCI([]float64{1, 2}, 1.5); err == nil {
		t.Fatal("expected error for bad level")
	}
}

func TestPropertyMeanBounded(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return Mean(clean) == 0
		}
		m := Mean(clean)
		return m >= slices.Min(clean)-1e-9 && m <= slices.Max(clean)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyVarianceNonNegative(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		return Variance(clean) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
