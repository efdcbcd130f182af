package core

import "testing"

func props(values ...int) []Proposal[int] {
	out := make([]Proposal[int], len(values))
	for i, v := range values {
		out[i] = Proposal[int]{Module: string(rune('a' + i)), Value: v}
	}
	return out
}

func TestMajorityVoterRules(t *testing.T) {
	v := NewEqualityVoter[int]()
	cases := []struct {
		name     string
		inputs   []Proposal[int]
		want     int
		skipped  bool
		agreeing int
	}{
		{"R.1 unanimous", props(5, 5, 5), 5, false, 3},
		{"R.1 two-of-three", props(5, 5, 9), 5, false, 2},
		{"R.1 two-of-three wrong majority", props(9, 9, 5), 9, false, 2},
		{"R.1 full divergence skips", props(1, 2, 3), 0, true, 0},
		{"R.2 agreement", props(7, 7), 7, false, 2},
		{"R.2 divergence safely skips", props(7, 8), 0, true, 0},
		{"R.3 single accepted", props(4), 4, false, 1},
		{"no proposals skips", nil, 0, true, 0},
	}
	for _, c := range cases {
		d := v.Vote(c.inputs)
		if d.Skipped != c.skipped {
			t.Errorf("%s: skipped=%v, want %v (%s)", c.name, d.Skipped, c.skipped, d.Reason)
			continue
		}
		if !c.skipped {
			if d.Value != c.want {
				t.Errorf("%s: value %d, want %d", c.name, d.Value, c.want)
			}
			if d.Agreeing != c.agreeing {
				t.Errorf("%s: agreeing %d, want %d", c.name, d.Agreeing, c.agreeing)
			}
		}
	}
}

func TestMajorityVoterFiveVersions(t *testing.T) {
	v := NewEqualityVoter[int]()
	// 3-of-5 majority.
	if d := v.Vote(props(1, 2, 3, 3, 3)); d.Skipped || d.Value != 3 {
		t.Fatalf("want majority 3, got %+v", d)
	}
	// 2-2-1 has no 3-of-5 majority.
	if d := v.Vote(props(1, 1, 2, 2, 3)); !d.Skipped {
		t.Fatalf("want skip for 2-2-1 split, got %+v", d)
	}
}

func TestUnanimousVoter(t *testing.T) {
	v := NewUnanimousVoter[int]()
	if d := v.Vote(props(2, 2, 2)); d.Skipped || d.Value != 2 {
		t.Fatalf("unanimous agreement rejected: %+v", d)
	}
	if d := v.Vote(props(2, 2, 3)); !d.Skipped {
		t.Fatalf("2-of-3 should not satisfy unanimity: %+v", d)
	}
	if d := v.Vote(props(4)); d.Skipped || d.Value != 4 {
		t.Fatalf("single proposal should pass: %+v", d)
	}
	if d := v.Vote(nil); !d.Skipped {
		t.Fatal("no proposals should skip")
	}
}

func TestPluralityVoterNeverSkipsWithProposals(t *testing.T) {
	v := NewPluralityVoter[int]()
	if d := v.Vote(props(1, 2, 3)); d.Skipped {
		t.Fatalf("plurality should pick something: %+v", d)
	}
	if d := v.Vote(props(1, 2, 2)); d.Skipped || d.Value != 2 {
		t.Fatalf("plurality should pick 2: %+v", d)
	}
	if d := v.Vote(nil); !d.Skipped {
		t.Fatal("no proposals should skip")
	}
}

func TestMajorityVoterApproximateEquality(t *testing.T) {
	// "equal/similar inputs" (§IV): approximate agreement within 0.5.
	v := &MajorityVoter[float64]{Eq: func(a, b float64) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		return d <= 0.5
	}}
	d := v.Vote([]Proposal[float64]{
		{Module: "a", Value: 1.0},
		{Module: "b", Value: 1.3},
		{Module: "c", Value: 9.0},
	})
	if d.Skipped || d.Agreeing != 2 {
		t.Fatalf("approximate agreement failed: %+v", d)
	}
}
