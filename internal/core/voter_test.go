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

func fprops(values ...float64) []Proposal[float64] {
	out := make([]Proposal[float64], len(values))
	for i, v := range values {
		out[i] = Proposal[float64]{Module: string(rune('a' + i)), Value: v}
	}
	return out
}

func TestMedianVoterApproximateAgreement(t *testing.T) {
	v := &MedianVoter{Epsilon: 0.5}
	// Three close steering angles: median wins.
	d := v.Vote(fprops(0.10, 0.12, 0.15))
	if d.Skipped || d.Value != 0.12 || d.Agreeing != 3 {
		t.Fatalf("close proposals: %+v", d)
	}
	// A Byzantine outlier cannot move the output outside the correct range.
	d = v.Vote(fprops(0.10, 0.12, 99))
	if d.Skipped || d.Value != 0.12 {
		t.Fatalf("outlier shifted the output: %+v", d)
	}
	// Full divergence skips.
	d = v.Vote(fprops(-5, 0, 5))
	if !d.Skipped {
		t.Fatalf("divergent proposals should skip: %+v", d)
	}
	// R.2 for two proposals: both within epsilon of the midpoint.
	d = v.Vote(fprops(0.1, 0.4))
	if d.Skipped || d.Value != 0.25 {
		t.Fatalf("two close proposals: %+v", d)
	}
	d = v.Vote(fprops(0.1, 3.0))
	if !d.Skipped {
		t.Fatalf("two divergent proposals should skip: %+v", d)
	}
	// R.3 and empty input.
	if d := v.Vote(fprops(0.7)); d.Skipped || d.Value != 0.7 {
		t.Fatalf("single proposal: %+v", d)
	}
	if d := v.Vote(nil); !d.Skipped {
		t.Fatal("no proposals should skip")
	}
}

func TestMedianVoterEvenCount(t *testing.T) {
	v := &MedianVoter{Epsilon: 2}
	d := v.Vote(fprops(1, 2, 3, 4))
	if d.Skipped || d.Value != 2.5 {
		t.Fatalf("even-count median: %+v", d)
	}
}
