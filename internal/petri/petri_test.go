package petri

import (
	"math"
	"strings"
	"testing"

	"mvml/internal/xrand"
)

// probability sums the steady-state probability of the markings satisfying
// pred.
func probability(res *Solution, pred func(Marking) bool) float64 {
	var total float64
	for i, m := range res.States {
		if pred(m) {
			total += res.Pi[i]
		}
	}
	return total
}

// buildCycle returns a 3-state cycle net P1 -> P2 -> P3 -> P1 with
// exponential transitions of the given mean delays.
func buildCycle(d1, d2, d3 float64) (*Net, [3]*Place) {
	n := NewNet("cycle")
	p1 := n.AddPlace("P1", 1)
	p2 := n.AddPlace("P2", 0)
	p3 := n.AddPlace("P3", 0)
	t1 := n.AddExponential("T1", d1)
	t2 := n.AddExponential("T2", d2)
	t3 := n.AddExponential("T3", d3)
	n.AddInput(p1, t1, 1)
	n.AddOutput(t1, p2, 1)
	n.AddInput(p2, t2, 1)
	n.AddOutput(t2, p3, 1)
	n.AddInput(p3, t3, 1)
	n.AddOutput(t3, p1, 1)
	return n, [3]*Place{p1, p2, p3}
}

func TestValidateCatchesErrors(t *testing.T) {
	empty := NewNet("empty")
	if err := empty.Validate(); err == nil {
		t.Fatal("expected error for empty net")
	}

	n := NewNet("dup")
	n.AddPlace("P", 1)
	n.AddPlace("P", 0)
	n.AddExponential("T", 1)
	if err := n.Validate(); err == nil {
		t.Fatal("expected error for duplicate place name")
	}

	n2 := NewNet("badweight")
	p := n2.AddPlace("P", 1)
	tr := n2.AddExponential("T", 1)
	n2.AddInput(p, tr, 0)
	if err := n2.Validate(); err == nil {
		t.Fatal("expected error for zero arc weight")
	}

	n3 := NewNet("baddelay")
	p3 := n3.AddPlace("P", 1)
	tr3 := n3.AddExponential("T", -1)
	n3.AddInput(p3, tr3, 1)
	if err := n3.Validate(); err == nil {
		t.Fatal("expected error for negative delay")
	}
}

func TestFireMovesTokens(t *testing.T) {
	n, places := buildCycle(1, 1, 1)
	m := n.InitialMarking()
	if m.Count(places[0]) != 1 || m.Count(places[1]) != 0 {
		t.Fatalf("unexpected initial marking %v", m)
	}
	next, err := n.Fire(m, n.transitions[0])
	if err != nil {
		t.Fatal(err)
	}
	if next.Count(places[0]) != 0 || next.Count(places[1]) != 1 {
		t.Fatalf("marking after fire: %v", next)
	}
	// Original marking untouched.
	if m.Count(places[0]) != 1 {
		t.Fatal("Fire mutated the source marking")
	}
	// Firing a disabled transition errors.
	if _, err := n.Fire(next, n.transitions[0]); err == nil {
		t.Fatal("expected error firing disabled transition")
	}
}

func TestMarkingKeyDistinct(t *testing.T) {
	a := Marking{1, 2, 3}
	b := Marking{12, 3}
	if a.Key() == b.Key() {
		t.Fatal("distinct markings share a key")
	}
	if a.Key() != a.Clone().Key() {
		t.Fatal("clone changed the key")
	}
}

func TestInhibitorArcDisables(t *testing.T) {
	n := NewNet("inhib")
	p := n.AddPlace("P", 1)
	blocker := n.AddPlace("B", 1)
	tr := n.AddExponential("T", 1)
	n.AddInput(p, tr, 1)
	n.AddInhibitor(blocker, tr, 1)
	if tr.EnabledIn(n.InitialMarking()) {
		t.Fatal("transition should be inhibited")
	}
	m := n.InitialMarking()
	m[blocker.index] = 0
	if !tr.EnabledIn(m) {
		t.Fatal("transition should be enabled once the inhibitor clears")
	}
}

func TestGuardDisables(t *testing.T) {
	n := NewNet("guard")
	p := n.AddPlace("P", 1)
	flag := n.AddPlace("F", 0)
	tr := n.AddExponential("T", 1)
	n.AddInput(p, tr, 1)
	tr.SetGuard(func(m Marking) bool { return m.Count(flag) > 0 })
	if tr.EnabledIn(n.InitialMarking()) {
		t.Fatal("guard should disable the transition")
	}
	m := n.InitialMarking()
	m[flag.index] = 1
	if !tr.EnabledIn(m) {
		t.Fatal("transition should be enabled when the guard holds")
	}
}

func TestCTMCCycleMatchesAnalytic(t *testing.T) {
	// Steady-state occupancy of a cycle is proportional to the mean delay
	// of the outgoing transition.
	n, places := buildCycle(2, 3, 5)
	res, err := SolveDSPN(n)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.2, 0.3, 0.5}
	for i, p := range places {
		got := probability(res, func(m Marking) bool { return m.Count(p) == 1 })
		if math.Abs(got-want[i]) > 1e-9 {
			t.Errorf("state %d probability %v, want %v", i, got, want[i])
		}
	}
}

func TestCTMCImmediateVanishingElimination(t *testing.T) {
	// P1 --exp--> Pv, where Pv is vanishing: two immediate transitions
	// with weights 1 and 3 route to A or B; A and B return to P1 with
	// different mean delays. Time in A vs B must reflect both the branch
	// probabilities (1/4, 3/4) and the sojourn times.
	n := NewNet("branch")
	p1 := n.AddPlace("P1", 1)
	pv := n.AddPlace("Pv", 0)
	pa := n.AddPlace("A", 0)
	pb := n.AddPlace("B", 0)

	leave := n.AddExponential("leave", 1)
	n.AddInput(p1, leave, 1)
	n.AddOutput(leave, pv, 1)

	toA := n.AddImmediate("toA")
	toA.SetWeight(func(Marking) float64 { return 1 })
	n.AddInput(pv, toA, 1)
	n.AddOutput(toA, pa, 1)

	toB := n.AddImmediate("toB")
	toB.SetWeight(func(Marking) float64 { return 3 })
	n.AddInput(pv, toB, 1)
	n.AddOutput(toB, pb, 1)

	backA := n.AddExponential("backA", 2)
	n.AddInput(pa, backA, 1)
	n.AddOutput(backA, p1, 1)
	backB := n.AddExponential("backB", 4)
	n.AddInput(pb, backB, 1)
	n.AddOutput(backB, p1, 1)

	res, err := SolveDSPN(n)
	if err != nil {
		t.Fatal(err)
	}
	// Mean cycle time = 1 + 0.25*2 + 0.75*4 = 4.5.
	wantP1 := 1.0 / 4.5
	wantA := 0.25 * 2 / 4.5
	wantB := 0.75 * 4 / 4.5
	gotP1 := probability(res, func(m Marking) bool { return m.Count(p1) == 1 })
	gotA := probability(res, func(m Marking) bool { return m.Count(pa) == 1 })
	gotB := probability(res, func(m Marking) bool { return m.Count(pb) == 1 })
	if math.Abs(gotP1-wantP1) > 1e-9 || math.Abs(gotA-wantA) > 1e-9 || math.Abs(gotB-wantB) > 1e-9 {
		t.Fatalf("probabilities (%v, %v, %v), want (%v, %v, %v)", gotP1, gotA, gotB, wantP1, wantA, wantB)
	}
	// No vanishing marking may appear among the states.
	for _, m := range res.States {
		if m.Count(pv) != 0 {
			t.Fatal("vanishing marking survived elimination")
		}
	}
}

func TestCTMCPriorityBeatsWeight(t *testing.T) {
	// Two immediates from the same place; the higher-priority one always
	// wins regardless of weights.
	n := NewNet("prio")
	p1 := n.AddPlace("P1", 1)
	pv := n.AddPlace("Pv", 0)
	pa := n.AddPlace("A", 0)
	pb := n.AddPlace("B", 0)

	leave := n.AddExponential("leave", 1)
	n.AddInput(p1, leave, 1)
	n.AddOutput(leave, pv, 1)

	toA := n.AddImmediate("toA").SetPriority(5)
	n.AddInput(pv, toA, 1)
	n.AddOutput(toA, pa, 1)
	toB := n.AddImmediate("toB")
	toB.SetWeight(func(Marking) float64 { return 1000 })
	n.AddInput(pv, toB, 1)
	n.AddOutput(toB, pb, 1)

	backA := n.AddExponential("backA", 1)
	n.AddInput(pa, backA, 1)
	n.AddOutput(backA, p1, 1)
	backB := n.AddExponential("backB", 1)
	n.AddInput(pb, backB, 1)
	n.AddOutput(backB, p1, 1)

	res, err := SolveDSPN(n)
	if err != nil {
		t.Fatal(err)
	}
	if got := probability(res, func(m Marking) bool { return m.Count(pb) == 1 }); got != 0 {
		t.Fatalf("low-priority branch has probability %v, want 0", got)
	}
}

func TestErlangApproximationMatchesDeterministic(t *testing.T) {
	n := NewNet("duty")
	p1 := n.AddPlace("P1", 1)
	p2 := n.AddPlace("P2", 0)
	on := n.AddDeterministic("on", 8)
	n.AddInput(p1, on, 1)
	n.AddOutput(on, p2, 1)
	off := n.AddExponential("off", 2)
	n.AddInput(p2, off, 1)
	n.AddOutput(off, p1, 1)

	approx, err := ErlangApproximation(n, 40)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveDSPN(approx)
	if err != nil {
		t.Fatal(err)
	}
	// The ON countdown is spread across P1 and the phase places, so check
	// the OFF state: occupancy of P2 = E[off]/(E[on]+E[off]) = 0.2. For
	// this cyclic net the mean-value argument is exact for any stage
	// count. Original place indices survive the transformation.
	gotOff := probability(res, func(m Marking) bool { return m[p2.index] == 1 })
	if math.Abs(gotOff-0.2) > 1e-6 {
		t.Fatalf("Erlang-approximated OFF occupancy %v, want 0.2", gotOff)
	}
	// And the ON side (everything not in P2) complements it.
	gotOn := probability(res, func(m Marking) bool { return m[p2.index] == 0 })
	if math.Abs(gotOn-0.8) > 1e-6 {
		t.Fatalf("Erlang-approximated ON occupancy %v, want 0.8", gotOn)
	}
	_ = p1
}

func TestErlangApproximationStageCount(t *testing.T) {
	n := NewNet("d")
	p := n.AddPlace("P", 1)
	q := n.AddPlace("Q", 0)
	tr := n.AddDeterministic("T", 4)
	n.AddInput(p, tr, 1)
	n.AddOutput(tr, q, 1)
	back := n.AddExponential("B", 1)
	n.AddInput(q, back, 1)
	n.AddOutput(back, p, 1)

	approx, err := ErlangApproximation(n, 5)
	if err != nil {
		t.Fatal(err)
	}
	// 5 stages -> 5 exponential transitions replacing T, plus B.
	if got := len(approx.transitions); got != 6 {
		t.Fatalf("%d transitions after transformation, want 6", got)
	}
	// 4 intermediate phase places plus the 2 originals.
	if got := len(approx.places); got != 6 {
		t.Fatalf("%d places after transformation, want 6", got)
	}
	if _, err := ErlangApproximation(n, 0); err == nil {
		t.Fatal("expected error for zero stages")
	}
}

// TestSimulateImmediateLivelockDetected: a cycle of immediate transitions
// is an error in the replications and in the exact solver, not a hang.
func TestSimulateImmediateLivelockDetected(t *testing.T) {
	n := NewNet("livelock")
	p := n.AddPlace("P", 1)
	q := n.AddPlace("Q", 0)
	ab := n.AddImmediate("ab")
	n.AddInput(p, ab, 1)
	n.AddOutput(ab, q, 1)
	ba := n.AddImmediate("ba")
	n.AddInput(q, ba, 1)
	n.AddOutput(ba, p, 1)

	if _, err := TransientRewards(n, TransientConfig{Times: []float64{1}}, func(Marking) float64 { return 0 }, xrand.New(1)); err == nil {
		t.Fatal("expected livelock detection in the replications")
	}
	if _, err := SolveDSPN(n); err == nil {
		t.Fatal("expected livelock detection in the exact solver")
	}
}

// clockResetNet is the proactive-rejuvenation pattern at its smallest: a
// module H is compromised (C) after an exponential time of the given mean,
// and a deterministic clock of period tau restores it. A token toggling
// N1 <-> N2 (mean 1 each way) adds events that must not reset the clock.
func clockResetNet(mean, tau float64) (n *Net, h, n1 *Place) {
	n = NewNet("clock-reset")
	h = n.AddPlace("H", 1)
	c := n.AddPlace("C", 0)
	rc := n.AddPlace("Prc", 1)
	tr := n.AddPlace("Ptr", 0)
	n1 = n.AddPlace("N1", 1)
	n2 := n.AddPlace("N2", 0)
	tc := n.AddExponential("Tc", mean)
	n.AddInput(h, tc, 1)
	n.AddOutput(tc, c, 1)
	clock := n.AddDeterministic("Trc", tau)
	n.AddInput(rc, clock, 1)
	n.AddOutput(clock, tr, 1)
	reset := n.AddImmediate("reset")
	n.AddInput(tr, reset, 1)
	n.AddInput(c, reset, 1)
	n.AddOutput(reset, rc, 1)
	n.AddOutput(reset, h, 1)
	idle := n.AddImmediate("idle")
	n.AddInput(tr, idle, 1)
	n.AddInhibitor(c, idle, 1)
	n.AddOutput(idle, rc, 1)
	tick := n.AddExponential("tick", 1)
	n.AddInput(n1, tick, 1)
	n.AddOutput(tick, n2, 1)
	tock := n.AddExponential("tock", 1)
	n.AddInput(n2, tock, 1)
	n.AddOutput(tock, n1, 1)
	return n, h, n1
}

// TestSolveDSPNClockResetMatchesAnalytic: within each period the module
// stays healthy with probability e^{-λs}, so the steady-state share of H is
// (1 - e^{-λτ})/(λτ), and the transient at t = kτ + s is e^{-λs}, with s = τ
// (the left limit) at multiples of τ. The toggling token's marginal is the
// two-state chain's 1/2 + e^{-2t}/2, whatever the clock does.
func TestSolveDSPNClockResetMatchesAnalytic(t *testing.T) {
	const lambda, tau = 0.25, 3.0
	n, h, n1 := clockResetNet(1/lambda, tau)
	res, err := SolveDSPN(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.States) != 4 {
		t.Fatalf("%d tangible states, want 4", len(res.States))
	}
	healthy := func(m Marking) bool { return m.Count(h) == 1 }
	want := (1 - math.Exp(-lambda*tau)) / (lambda * tau)
	if got := probability(res, healthy); math.Abs(got-want) > 1e-9 {
		t.Fatalf("steady-state P(H) = %.12f, want %.12f", got, want)
	}
	if got := probability(res, func(m Marking) bool { return m.Count(n1) == 1 }); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("steady-state P(N1) = %.12f, want 0.5", got)
	}
	for _, c := range []struct{ t, s float64 }{{0, 0}, {1.5, 1.5}, {3, 3}, {4.5, 1.5}, {6, 3}, {7, 1}} {
		p, err := res.Transient(c.t)
		if err != nil {
			t.Fatal(err)
		}
		var gotH, gotN1 float64
		for i, m := range res.States {
			if healthy(m) {
				gotH += p[i]
			}
			if m.Count(n1) == 1 {
				gotN1 += p[i]
			}
		}
		if want := math.Exp(-lambda * c.s); math.Abs(gotH-want) > 1e-9 {
			t.Errorf("P(H at t=%v) = %.12f, want %.12f", c.t, gotH, want)
		}
		if want := 0.5 + 0.5*math.Exp(-2*c.t); math.Abs(gotN1-want) > 1e-9 {
			t.Errorf("P(N1 at t=%v) = %.12f, want %.12f", c.t, gotN1, want)
		}
	}
	if _, err := res.Transient(-1); err == nil {
		t.Fatal("expected an error for a negative time")
	}
}

// TestSolveDSPNRejectsDisabledDeterministic: the regenerative solution
// needs the one deterministic transition enabled in every tangible marking;
// a net whose clock can be disabled, or one with two clocks, is an error
// that names the marking or the transitions.
func TestSolveDSPNRejectsDisabledDeterministic(t *testing.T) {
	// P1 --det(8)--> P2 --exp(2)--> P1: the clock is disabled in P2.
	duty := NewNet("duty")
	p1 := duty.AddPlace("P1", 1)
	p2 := duty.AddPlace("P2", 0)
	on := duty.AddDeterministic("on", 8)
	duty.AddInput(p1, on, 1)
	duty.AddOutput(on, p2, 1)
	off := duty.AddExponential("off", 2)
	duty.AddInput(p2, off, 1)
	duty.AddOutput(off, p1, 1)
	if _, err := SolveDSPN(duty); err == nil || !strings.Contains(err.Error(), "disabled in tangible marking 0,1") {
		t.Fatalf("duty cycle: got %v, want the marking that disables the clock", err)
	}

	twice, _, _ := clockResetNet(4, 3)
	extra := twice.AddDeterministic("Trc2", 5)
	twice.AddInput(twice.places[0], extra, 1)
	twice.AddOutput(extra, twice.places[0], 1)
	if _, err := SolveDSPN(twice); err == nil || !strings.Contains(err.Error(), `"Trc" and "Trc2"`) {
		t.Fatalf("two clocks: got %v, want both named", err)
	}
}

// within999 reports whether every replication estimate's 99.9% CI contains
// the matching exact value.
func within999(t *testing.T, n *Net, times []float64, reward func(Marking) float64, exact func(t float64) float64, seed uint64) {
	t.Helper()
	points, err := TransientRewards(n, TransientConfig{Times: times, Replications: 2000, Level: 0.999}, reward, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		if want := exact(pt.Time); !pt.Reward.Contains(want) {
			t.Errorf("t=%v: exact %.6f outside the replications' CI %v", pt.Time, want, pt.Reward)
		}
	}
}

// TestSimulateCycleMatchesCTMC: replications of the 3-state cycle contain
// its exact transient, from the start to the steady state.
func TestSimulateCycleMatchesCTMC(t *testing.T) {
	n, places := buildCycle(2, 3, 5)
	res, err := SolveDSPN(n)
	if err != nil {
		t.Fatal(err)
	}
	inP3 := func(m Marking) float64 { return float64(m.Count(places[2])) }
	within999(t, n, []float64{1, 4, 10, 100}, inP3, func(at float64) float64 {
		p, err := res.Transient(at)
		if err != nil {
			t.Fatal(err)
		}
		var v float64
		for i, m := range res.States {
			v += p[i] * inP3(m)
		}
		return v
	}, 42)
}

// TestSimulateDeterministicEnablingMemory: in the replications a
// deterministic clock keeps counting through unrelated firings (the
// toggling token of clockResetNet fires about once a time unit), so the
// module is healthy at t = kτ + s with probability e^{-λs}, as the exact
// solution has it.
func TestSimulateDeterministicEnablingMemory(t *testing.T) {
	const lambda, tau = 0.25, 3.0
	n, h, _ := clockResetNet(1/lambda, tau)
	healthy := func(m Marking) float64 { return float64(m.Count(h)) }
	within999(t, n, []float64{1.5, 3, 4.5, 7}, healthy, func(at float64) float64 {
		return math.Exp(-lambda * (at - (math.Ceil(at/tau)-1)*tau))
	}, 9)
}

// TestSimulateDeterministicDutyCycle: P1 --det(8)--> P2 --exp(2)--> P1
// spends 8/(8+2) = 0.8 of the long run in P1. The exact solver rejects this
// net (the clock is disabled in P2), so the replications are its solver.
func TestSimulateDeterministicDutyCycle(t *testing.T) {
	n := NewNet("duty")
	p1 := n.AddPlace("P1", 1)
	p2 := n.AddPlace("P2", 0)
	on := n.AddDeterministic("on", 8)
	n.AddInput(p1, on, 1)
	n.AddOutput(on, p2, 1)
	off := n.AddExponential("off", 2)
	n.AddInput(p2, off, 1)
	n.AddOutput(off, p1, 1)
	within999(t, n, []float64{400}, func(m Marking) float64 { return float64(m.Count(p1)) },
		func(float64) float64 { return 0.8 }, 3)
}

func TestKindString(t *testing.T) {
	if Immediate.String() != "immediate" || Exponential.String() != "exponential" || Deterministic.String() != "deterministic" {
		t.Fatal("Kind.String broken")
	}
}

func BenchmarkSolveDSPNCycle(b *testing.B) {
	n, _ := buildCycle(1, 2, 3)
	for i := 0; i < b.N; i++ {
		if _, err := SolveDSPN(n); err != nil {
			b.Fatal(err)
		}
	}
}
