package core

import (
	"testing"
	"testing/quick"

	"mvml/internal/xrand"
)

// randomProposals builds a proposal list from fuzz input.
func randomProposals(values []uint8) []Proposal[int] {
	out := make([]Proposal[int], 0, len(values))
	for i, v := range values {
		out = append(out, Proposal[int]{
			Module: string(rune('a' + i%26)),
			Value:  int(v % 7),
		})
	}
	return out
}

// TestPropertyMajorityOutputIsAProposal: whatever the majority voter emits
// must be one of the proposed values — the voter can never invent an output.
func TestPropertyMajorityOutputIsAProposal(t *testing.T) {
	v := NewEqualityVoter[int]()
	f := func(values []uint8) bool {
		proposals := randomProposals(values)
		d := v.Vote(proposals)
		if d.Skipped {
			return true
		}
		for _, p := range proposals {
			if p.Value == d.Value {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMajorityNeedsQuorum: a non-skipped majority decision is backed
// by more than half of the proposals (or is the lone proposal).
func TestPropertyMajorityNeedsQuorum(t *testing.T) {
	v := NewEqualityVoter[int]()
	f := func(values []uint8) bool {
		proposals := randomProposals(values)
		d := v.Vote(proposals)
		if d.Skipped {
			return true
		}
		count := 0
		for _, p := range proposals {
			if p.Value == d.Value {
				count++
			}
		}
		if len(proposals) == 1 {
			return count == 1
		}
		return count > len(proposals)/2 || (len(proposals) == 2 && count == 2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMajorityPermutationInvariant: shuffling the proposals never
// changes a majority verdict (the winning value is unique when a quorum
// exists).
func TestPropertyMajorityPermutationInvariant(t *testing.T) {
	v := NewEqualityVoter[int]()
	f := func(values []uint8, seed uint64) bool {
		proposals := randomProposals(values)
		a := v.Vote(proposals)
		shuffled := append([]Proposal[int](nil), proposals...)
		xrand.New(seed).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		b := v.Vote(shuffled)
		if a.Skipped != b.Skipped {
			return false
		}
		return a.Skipped || a.Value == b.Value
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyUnanimousImpliesMajority: whenever unanimity produces an
// output, the majority voter must produce the same output.
func TestPropertyUnanimousImpliesMajority(t *testing.T) {
	u := NewUnanimousVoter[int]()
	m := NewEqualityVoter[int]()
	f := func(values []uint8) bool {
		proposals := randomProposals(values)
		du := u.Vote(proposals)
		if du.Skipped {
			return true
		}
		dm := m.Vote(proposals)
		return !dm.Skipped && dm.Value == du.Value
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPluralityAlwaysDecides: plurality skips only on empty input.
func TestPropertyPluralityAlwaysDecides(t *testing.T) {
	v := NewPluralityVoter[int]()
	f := func(values []uint8) bool {
		proposals := randomProposals(values)
		d := v.Vote(proposals)
		return d.Skipped == (len(proposals) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySystemOccupancyIsDistribution: after any advance, the system
// occupancy fractions sum to 1 and every state has the right module total.
func TestPropertySystemOccupancyIsDistribution(t *testing.T) {
	f := func(seed uint64, horizonRaw uint16) bool {
		horizon := 10 + float64(horizonRaw%2000)
		cfg := Config{
			MeanTimeToCompromise:      5,
			MeanTimeToFailure:         7,
			MeanReactiveRejuvenation:  0.5,
			MeanProactiveRejuvenation: 0.5,
			RejuvenationInterval:      3,
		}
		sys, err := NewSystem[int, int](testVersions(3), NewEqualityVoter[int](), cfg, xrand.New(seed))
		if err != nil {
			return false
		}
		if err := sys.Advance(horizon); err != nil {
			return false
		}
		var total float64
		for st, frac := range sys.Occupancy() {
			if frac < 0 || st.Healthy+st.Compromised+st.NonFunctional != 3 {
				return false
			}
			total += frac
		}
		return total > 0.999 && total < 1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMixtureCalibration: for any valid (p, alpha), the solved
// mixture reproduces both the marginal and the pairwise joint probability.
func TestPropertyMixtureCalibration(t *testing.T) {
	f := func(pRaw, aRaw uint16) bool {
		p := 0.001 + 0.8*float64(pRaw)/65535
		alpha := float64(aRaw) / 65535
		c, q, err := mixtureParams(p, alpha)
		if err != nil {
			// Some (p, alpha) pairs have no valid mixture; that is a
			// documented error, not a property violation.
			return true
		}
		if c < 0 || c > 1 || q < 0 || q > 1 {
			return false
		}
		marginal := c + (1-c)*q
		joint := c + (1-c)*q*q
		return abs(marginal-p) < 1e-9 && abs(joint-alpha*p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
