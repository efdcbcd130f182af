package core

// Fuzz coverage for the three voting schemes. The target decodes an
// arbitrary byte string into a proposal list and checks the voting rules
// R.1–R.3 as executable invariants: agreement thresholds and safe-skip
// conditions.
// The harness itself never panicking is part of the contract — voters sit on
// the perception hot path and must tolerate any proposal multiset.

import "testing"

// fuzzProposals decodes bytes into proposals over a small label alphabet so
// that agreement clusters of every size actually occur.
func fuzzProposals(data []byte) []Proposal[int] {
	props := make([]Proposal[int], 0, len(data))
	for i, b := range data {
		props = append(props, Proposal[int]{
			Module: string(rune('A' + i%7)),
			Value:  int(b % 5),
		})
		if len(props) == 64 {
			break
		}
	}
	return props
}

// clusterCount returns how many proposals share value v.
func clusterCount(props []Proposal[int], v int) int {
	n := 0
	for _, p := range props {
		if p.Value == v {
			n++
		}
	}
	return n
}

func FuzzVoter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 1, 2})
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{3, 3, 3, 3, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		props := fuzzProposals(data)
		n := len(props)
		need := n/2 + 1
		if n == 2 {
			need = 2 // R.2
		}

		majority := NewEqualityVoter[int]().Vote(props)
		unanimous := NewUnanimousVoter[int]().Vote(props)
		plurality := NewPluralityVoter[int]().Vote(props)

		for name, d := range map[string]Decision[int]{
			"majority": majority, "unanimous": unanimous,
			"plurality": plurality,
		} {
			if n == 0 && !d.Skipped {
				t.Fatalf("%s: empty proposal list must skip", name)
			}
			if !d.Skipped {
				if d.Agreeing < 1 || d.Agreeing > n {
					t.Fatalf("%s: agreeing %d out of range [1,%d]", name, d.Agreeing, n)
				}
				if got := clusterCount(props, d.Value); got != d.Agreeing {
					t.Fatalf("%s: reported %d agreeing, actual cluster size %d", name, d.Agreeing, got)
				}
			}
			if n > 0 && d.Proposals != n {
				t.Fatalf("%s: Proposals = %d, want %d", name, d.Proposals, n)
			}
		}

		// R.1/R.2: majority output requires a need-sized cluster; a skip
		// means no such cluster exists.
		if !majority.Skipped && n >= 2 && majority.Agreeing < need {
			t.Fatalf("majority accepted with %d < %d agreement", majority.Agreeing, need)
		}
		if majority.Skipped && n >= 2 {
			for _, p := range props {
				if clusterCount(props, p.Value) >= need {
					t.Fatalf("majority skipped despite %d-of-%d cluster on %d",
						clusterCount(props, p.Value), n, p.Value)
				}
			}
		}
		// R.3: a single proposal is accepted as-is.
		if n == 1 && (majority.Skipped || majority.Value != props[0].Value) {
			t.Fatalf("single proposal not accepted as-is: %+v", majority)
		}

		// Unanimity: accepted iff every proposal agrees.
		allEqual := n > 0
		for _, p := range props {
			if p.Value != props[0].Value {
				allEqual = false
				break
			}
		}
		if unanimous.Skipped == allEqual && n > 0 {
			t.Fatalf("unanimous voter: skipped=%v with allEqual=%v", unanimous.Skipped, allEqual)
		}

		// A plurality voter only skips on an empty list.
		if n > 0 && plurality.Skipped {
			t.Fatal("plurality voter must not skip on non-empty proposals")
		}
	})
}
