package health

import (
	"math"
	"testing"

	"mvml/internal/reliability"
)

// TestAlphaMatchesPairwise cross-checks the incremental estimator against
// the reference batch computation (reliability.AlphaPairwise, Eq. 8) on a
// synthetic round log: per-version error sets built from the same rounds
// must yield the same pairwise α values.
func TestAlphaMatchesPairwise(t *testing.T) {
	versions := []string{"a", "b", "c"}
	// rounds[i] lists which versions diverged in round i.
	rounds := [][]string{
		{"a"}, {}, {"a", "b"}, {"b"}, {"a", "b", "c"}, {}, {"c"},
		{"a", "b"}, {"a"}, {}, {"b", "c"}, {"a", "c"}, {}, {"a", "b", "c"},
	}

	est := NewAlphaEstimator()
	errSets := map[string]map[int]bool{}
	for _, v := range versions {
		errSets[v] = map[int]bool{}
	}
	for i, div := range rounds {
		est.ObserveRound(div)
		for _, v := range div {
			errSets[v][i] = true
		}
	}

	if got, want := est.rounds, uint64(len(rounds)); got != want {
		t.Fatalf("Rounds() = %d, want %d", got, want)
	}
	pairs := est.Pairs()
	if len(pairs) != 3 {
		t.Fatalf("got %d pairs, want 3", len(pairs))
	}
	for _, p := range pairs {
		want := reliability.AlphaPairwise(errSets[p.A], errSets[p.B])
		if math.Abs(p.Alpha-want) > 1e-12 {
			t.Errorf("pair %s~%s: alpha %v, want AlphaPairwise %v", p.A, p.B, p.Alpha, want)
		}
	}

	// Overall α is the mean of the pairwise values (Eq. 9).
	want := reliability.AlphaThreeVersion(errSets["a"], errSets["b"], errSets["c"])
	got, known := est.Alpha()
	if !known {
		t.Fatal("alpha unmeasured despite disagreements")
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("overall alpha %v, want AlphaThreeVersion %v", got, want)
	}
}

func TestAlphaUnmeasuredWithoutDisagreements(t *testing.T) {
	est := NewAlphaEstimator()
	for i := 0; i < 100; i++ {
		est.ObserveRound(nil)
	}
	if a, known := est.Alpha(); known || a != 0 {
		t.Fatalf("clean stream: alpha (%v, %v), want (0, false)", a, known)
	}
	if pairs := est.Pairs(); len(pairs) != 0 {
		t.Fatalf("clean stream produced %d pairs", len(pairs))
	}
}

func TestAlphaDeduplicatesWithinRound(t *testing.T) {
	est := NewAlphaEstimator()
	est.ObserveRound([]string{"a", "a", "b"})
	pairs := est.Pairs()
	if len(pairs) != 1 {
		t.Fatalf("got %d pairs, want 1", len(pairs))
	}
	if p := pairs[0]; p.Both != 1 || p.MaxN != 1 || p.Alpha != 1 {
		t.Fatalf("duplicate-name round double-counted: %+v", p)
	}
}

func TestAlphaFullyDependent(t *testing.T) {
	est := NewAlphaEstimator()
	for i := 0; i < 10; i++ {
		est.ObserveRound([]string{"x", "y"})
	}
	a, known := est.Alpha()
	if !known || a != 1 {
		t.Fatalf("always-together divergence: alpha (%v, %v), want (1, true)", a, known)
	}
}

func TestAlphaIndependent(t *testing.T) {
	est := NewAlphaEstimator()
	for i := 0; i < 10; i++ {
		est.ObserveRound([]string{"x"})
		est.ObserveRound([]string{"y"})
	}
	a, known := est.Alpha()
	if !known || a != 0 {
		t.Fatalf("never-together divergence: alpha (%v, %v), want (0, true)", a, known)
	}
}
