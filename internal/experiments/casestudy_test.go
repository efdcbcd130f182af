package experiments

import (
	"math"
	"strings"
	"testing"

	"mvml/internal/reliability"
)

// The case-study tests run what `mvml drive` runs with no flags but the
// step's own: DefaultCaseStudyConfig, whose Seed and RunsPerRoute are the
// CLI's -seed and -runs defaults. Every number they assert is one
// EXPERIMENTS.md prints.

func TestRunTableVIShape(t *testing.T) {
	res, err := RunTableVI(DefaultCaseStudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.With) != 8 || len(res.Without) != 8 {
		t.Fatalf("route rows: %d/%d, want 8/8", len(res.With), len(res.Without))
	}
	_, _, withRate, withColl, _, _ := totals(res.With)
	_, _, withoutRate, withoutColl, withoutRuns, _ := totals(res.Without)
	if withColl != 0 {
		t.Errorf("with rejuvenation: %d collided runs, want 0", withColl)
	}
	if withoutColl < withoutRuns/2 {
		t.Errorf("without rejuvenation: only %d/%d runs collided", withoutColl, withoutRuns)
	}
	if withoutRate <= withRate+5 {
		t.Errorf("collision rates: w/o %.2f%% should far exceed w/ %.2f%%", withoutRate, withRate)
	}
	out := res.Render()
	for _, want := range []string{"Town02", "Avg/Total", "#Coll"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestRunTableVIIShape(t *testing.T) {
	res, err := RunTableVII(DefaultCaseStudyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(res.Rows))
	}
	if res.Rows[0].Interval != 3 || res.Rows[3].Interval != 9 {
		t.Fatalf("unexpected intervals: %+v", res.Rows)
	}
	// The 3 s interval keeps driving safe; longer intervals must not be
	// strictly safer overall.
	if res.Rows[0].CollidedRuns != 0 {
		t.Errorf("3s interval collided %d times, want 0", res.Rows[0].CollidedRuns)
	}
	longTotal := res.Rows[1].CollidedRuns + res.Rows[2].CollidedRuns + res.Rows[3].CollidedRuns
	if longTotal == 0 {
		t.Error("longer intervals produced no collisions at all — sweep shows no effect")
	}
	if !strings.Contains(res.Render(), "1/gamma") {
		t.Fatal("render broken")
	}
}

func TestRunTableVIIIShape(t *testing.T) {
	res, err := RunTableVIII(DefaultCaseStudyConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(res.Rows))
	}
	single, three, threeRej := res.Rows[0], res.Rows[1], res.Rows[2]
	if single.FPS.Mean <= three.FPS.Mean {
		t.Error("single-version FPS should exceed three-version")
	}
	ratio := three.FPS.Mean / single.FPS.Mean
	if ratio < 0.6 || ratio > 0.85 {
		t.Errorf("3v/1v FPS ratio %.3f outside the paper's ≈0.73 band", ratio)
	}
	if threeRej.FPS.Mean >= three.FPS.Mean {
		t.Error("rejuvenation reload stall should cost some FPS")
	}
	if single.GPU.Mean >= three.GPU.Mean {
		t.Error("GPU utilisation should grow with versions")
	}
	// The paper: rejuvenation makes no significant GPU difference (CI
	// overlap between the two three-version rows).
	overlap := threeRej.GPU.Lo <= three.GPU.Hi && three.GPU.Lo <= threeRej.GPU.Hi
	if !overlap && three.GPU.Mean-threeRej.GPU.Mean < 0.5 {
		t.Error("rejuvenation GPU cost should be statistically insignificant")
	}
	if !strings.Contains(res.Render(), "Three-v w/rej") {
		t.Fatal("render broken")
	}
}

func TestVotingAblation(t *testing.T) {
	res, err := RunVotingAblation(DefaultCaseStudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(res.Rows))
	}
	quorum, list, unanimous := res.Rows[0], res.Rows[1], res.Rows[2]
	// The object-level quorum voter should skip least; unanimity most.
	if quorum.SkipRatio >= unanimous.SkipRatio {
		t.Errorf("quorum skip %.3f should undercut unanimity %.3f",
			quorum.SkipRatio, unanimous.SkipRatio)
	}
	if list.SkipRatio <= quorum.SkipRatio {
		t.Errorf("list voting skip %.3f should exceed quorum %.3f",
			list.SkipRatio, quorum.SkipRatio)
	}
	// A skip holds the last plan, so demanding more agreement is less safe.
	if quorum.CollidedRuns >= list.CollidedRuns || list.CollidedRuns >= unanimous.CollidedRuns {
		t.Errorf("collided runs quorum %d, list %d, unanimous %d: want strictly rising",
			quorum.CollidedRuns, list.CollidedRuns, unanimous.CollidedRuns)
	}
	if !strings.Contains(res.Render(), "quorum") {
		t.Fatal("render broken")
	}
}

func TestSelectionAblation(t *testing.T) {
	cfg := DefaultCaseStudyConfig()
	res, err := RunSelectionAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Runs != 8*cfg.RunsPerRoute {
			t.Fatalf("row %s ran %d times, want %d", row.Name, row.Runs, 8*cfg.RunsPerRoute)
		}
	}
	// Prioritising compromised victims is the operative part of the policy:
	// always-compromised-first collides least, the paper's 2/3 preference
	// next, uniform-by-count most, and uniform skips the most too.
	paper, uniform, always := res.Rows[0], res.Rows[1], res.Rows[2]
	if always.CollidedRuns >= paper.CollidedRuns || paper.CollidedRuns >= uniform.CollidedRuns {
		t.Errorf("collided runs always %d, 2/3 %d, uniform %d: want strictly rising",
			always.CollidedRuns, paper.CollidedRuns, uniform.CollidedRuns)
	}
	if uniform.SkipRatio <= paper.SkipRatio || uniform.SkipRatio <= always.SkipRatio {
		t.Errorf("uniform skip %.3f should exceed 2/3 %.3f and always %.3f",
			uniform.SkipRatio, paper.SkipRatio, always.SkipRatio)
	}
}

func TestClockAblation(t *testing.T) {
	res, err := RunClockAblation(DefaultCaseStudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Per-module clocks triple the compromise arrival rate, so the system
	// spends more time with a degraded majority.
	if res.PerModuleDegraded <= res.SharedDegraded {
		t.Errorf("per-module clocks (%.4f) should be more degraded than shared (%.4f)",
			res.PerModuleDegraded, res.SharedDegraded)
	}
	if !strings.Contains(res.Render(), "single-server") {
		t.Fatal("render broken")
	}
}

// TestErlangConvergence: the Erlang phase-type approximation of the
// deterministic rejuvenation clock converges from below to the exact
// reliability of the 3-version proactive model, the value `mvml dspn -n 3`
// prints and against which `-erlang 20` prints its delta. Its error is
// −0.0033 at k = 1, −0.00018 at 20 and −0.000046 at 80, and roughly halves
// with each doubling of k.
func TestErlangConvergence(t *testing.T) {
	model, err := reliability.NewModel(3, reliability.DefaultParams(), true)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := model.SolveExact()
	if err != nil {
		t.Fatal(err)
	}
	errAt := func(k int) float64 {
		erl, err := model.SolveErlang(k)
		if err != nil {
			t.Fatal(err)
		}
		return erl.Expected - exact.Expected
	}
	for k, want := range map[int]float64{1: -0.0033, 20: -0.00018, 80: -0.000046} {
		if got := errAt(k); math.Abs(got-want) > 0.1*math.Abs(want) {
			t.Errorf("Erlang(%d) error %.7f, want ≈%.6f", k, got, want)
		}
	}
	for k := 5; k <= 40; k *= 2 {
		if ratio := errAt(2*k) / errAt(k); ratio < 0.45 || ratio > 0.55 {
			t.Errorf("Erlang(%d)/Erlang(%d) error ratio %.3f, want ≈0.5", 2*k, k, ratio)
		}
	}
}
