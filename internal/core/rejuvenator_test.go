package core

import (
	"fmt"
	"math"
	"testing"

	"mvml/internal/xrand"
)

// allStates enumerates {H, C, N, R}^n.
func allStates(n int) [][]ModuleState {
	out := [][]ModuleState{{}}
	for i := 0; i < n; i++ {
		var next [][]ModuleState
		for _, prefix := range out {
			for st := Healthy; st <= Rejuvenating; st++ {
				next = append(next, append(append([]ModuleState(nil), prefix...), st))
			}
		}
		out = next
	}
	return out
}

// TestRejuvenatorPolicyExhaustive checks the DSPN's rejuvenation policy on
// every configuration for N = 1, 2, 3: every states vector × trigger pending
// or not × every repair-slot holder, under both selection policies. It drives
// the policy to quiescence the way System does (each start turns its module
// Rejuvenating) and checks every decision on the way.
func TestRejuvenatorPolicyExhaustive(t *testing.T) {
	cases := 0
	for _, sel := range []SelectionMode{SelectByCount, SelectPreferCompromised} {
		rng := xrand.New(7)
		for n := 1; n <= 3; n++ {
			for _, start := range allStates(n) {
				for _, pending := range []bool{false, true} {
					for holder := -1; holder < n; holder++ {
						cases++
						name := fmt.Sprintf("%v/%v/pending=%v/slot=%d", sel, start, pending, holder)
						r := NewRejuvenator(Config{Selection: sel, PreferProb: 2.0 / 3}, rng)
						r.pending, r.repairing = pending, holder
						states := append([]ModuleState(nil), start...)
						checkPolicy(t, name, r, states)
					}
				}
			}
		}
	}
	if cases != 2*(4*2*2+16*2*3+64*2*4) {
		t.Fatalf("enumerated %d cases", cases)
	}
}

// checkPolicy asks r for starts until none is due, asserting the policy's
// invariants at each step.
func checkPolicy(t *testing.T, name string, r *Rejuvenator, states []ModuleState) {
	t.Helper()
	for step := 0; ; step++ {
		if step > len(states) {
			t.Fatalf("%s: more starts than modules", name)
		}
		firstN := -1
		for i, st := range states {
			if st == NonFunctional && firstN < 0 {
				firstN = i
			}
		}
		slotFree, pending := r.repairing < 0, r.pending
		blocked := false // g2
		for _, st := range states {
			blocked = blocked || st == NonFunctional || st == Rejuvenating
		}
		v, proactive, ok := r.Next(states)
		switch {
		case slotFree && firstN >= 0:
			// A reactive start always wins, on the lowest-index crash.
			if !ok || proactive || v != firstN || r.repairing != v {
				t.Fatalf("%s: Next = (%d, %v, %v), want reactive %d", name, v, proactive, ok, firstN)
			}
		case !pending || blocked:
			// One repair at a time, and no proactive start under g2.
			if ok {
				t.Fatalf("%s: Next = (%d, %v), want nothing due", name, v, proactive)
			}
		default:
			if !ok || !proactive || !states[v].Functional() {
				t.Fatalf("%s: Next = (%d, %v, %v), want a proactive functional victim", name, v, proactive, ok)
			}
		}
		// The pending trigger clears exactly on a proactive start.
		if r.pending != (pending && !(ok && proactive)) {
			t.Fatalf("%s: pending %v after Next = (%d, %v, %v)", name, r.pending, v, proactive, ok)
		}
		if !ok {
			return
		}
		states[v] = Rejuvenating
	}
}

// TestRejuvenatorDoneFreesOnlyItsSlot: Done releases the repair slot only
// for the module that holds it.
func TestRejuvenatorDoneFreesOnlyItsSlot(t *testing.T) {
	r := NewRejuvenator(Config{}, xrand.New(1))
	if v, _, ok := r.Next([]ModuleState{NonFunctional, NonFunctional}); !ok || v != 0 {
		t.Fatalf("first repair %d %v, want 0", v, ok)
	}
	r.Done(1)
	if _, _, ok := r.Next([]ModuleState{Rejuvenating, NonFunctional}); ok {
		t.Fatal("Done of a non-holder freed the slot")
	}
	r.Done(0)
	if v, _, ok := r.Next([]ModuleState{Healthy, NonFunctional}); !ok || v != 1 {
		t.Fatalf("after Done(0): repair %d %v, want 1", v, ok)
	}
}

// TestRejuvenatorSelectByCount: the w1/w2 weights pick a compromised victim
// with probability #C/(#C+#H).
func TestRejuvenatorSelectByCount(t *testing.T) {
	for _, states := range [][]ModuleState{
		{Compromised, Healthy, Healthy},
		{Healthy, Compromised, Compromised},
		{Compromised, Healthy},
	} {
		r := NewRejuvenator(Config{}, xrand.New(11))
		const draws = 10000
		hits, c := 0, 0
		for _, st := range states {
			if st == Compromised {
				c++
			}
		}
		for i := 0; i < draws; i++ {
			r.Tick()
			v, proactive, ok := r.Next(states)
			if !ok || !proactive {
				t.Fatalf("%v: no proactive start", states)
			}
			if states[v] == Compromised {
				hits++
			}
		}
		want := float64(c) / float64(len(states))
		if got := float64(hits) / draws; math.Abs(got-want) > 0.02 {
			t.Errorf("%v: compromised victim share %.4f, want %.4f ± 0.02", states, got, want)
		}
	}
}
