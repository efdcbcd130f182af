package core

import "fmt"

// Decision is the voter's verdict for one inference round.
type Decision[O any] struct {
	// Value is the agreed output; meaningless when Skipped.
	Value O
	// Skipped reports that the voter safely declined to output
	// (rule R.2's input divergence, or no functional modules at all).
	Skipped bool
	// Reason explains a skip.
	Reason string
	// Agreeing is the number of proposals backing the chosen value.
	Agreeing int
	// Proposals is the number of proposals considered.
	Proposals int
}

// Voter decides a final output from module proposals. Implementations must
// treat an empty proposal list as a skip.
type Voter[O any] interface {
	// Vote combines the proposals of the currently functional modules.
	Vote(proposals []Proposal[O]) Decision[O]
}

// Equal abstracts output comparison so approximate agreement (paper §IV,
// "equal/similar inputs") is expressible; exact equality is the default for
// comparable outputs.
type Equal[O any] func(a, b O) bool

// MajorityVoter implements the paper's voting rules R.1–R.3:
//
//   - R.1 — three (or more) proposals: an output needs at least ⌈(n+1)/2⌉
//     agreeing proposals (2-out-of-3 for n=3); otherwise skip.
//   - R.2 — exactly two proposals: both must agree, otherwise the voter
//     *safely skips* rather than guess.
//   - R.3 — a single proposal is accepted as-is.
//
// Agreement is judged by Eq; a wrong-but-agreeing majority still produces an
// output (the voter does not know the ground truth).
type MajorityVoter[O any] struct {
	// Eq compares proposals; required.
	Eq Equal[O]
}

var _ Voter[int] = (*MajorityVoter[int])(nil)

// NewEqualityVoter returns a MajorityVoter over a comparable output type.
func NewEqualityVoter[O comparable]() *MajorityVoter[O] {
	return &MajorityVoter[O]{Eq: func(a, b O) bool { return a == b }}
}

// Vote implements Voter.
func (v *MajorityVoter[O]) Vote(proposals []Proposal[O]) Decision[O] {
	n := len(proposals)
	switch n {
	case 0:
		return Decision[O]{Skipped: true, Reason: "no functional modules"}
	case 1:
		// R.3: accept the only proposal.
		return Decision[O]{Value: proposals[0].Value, Agreeing: 1, Proposals: 1}
	}
	// Cluster proposals by pairwise agreement and take the largest cluster.
	best, bestCount := v.largestCluster(proposals)
	need := n/2 + 1
	if n == 2 {
		need = 2 // R.2: unanimity of the two functional modules
	}
	if bestCount >= need {
		return Decision[O]{Value: best, Agreeing: bestCount, Proposals: n}
	}
	return Decision[O]{
		Skipped:   true,
		Reason:    fmt.Sprintf("no %d-of-%d agreement", need, n),
		Proposals: n,
	}
}

func (v *MajorityVoter[O]) largestCluster(proposals []Proposal[O]) (O, int) {
	bestIdx, bestCount := 0, 0
	for i := range proposals {
		count := 0
		for j := range proposals {
			if v.Eq(proposals[i].Value, proposals[j].Value) {
				count++
			}
		}
		if count > bestCount {
			bestIdx, bestCount = i, count
		}
	}
	return proposals[bestIdx].Value, bestCount
}

// UnanimousVoter requires every functional module to agree (the 3-out-of-3
// scheme referenced in §IV); any divergence is a safe skip.
type UnanimousVoter[O any] struct {
	Eq Equal[O]
}

var _ Voter[int] = (*UnanimousVoter[int])(nil)

// NewUnanimousVoter returns a UnanimousVoter over a comparable output type.
func NewUnanimousVoter[O comparable]() *UnanimousVoter[O] {
	return &UnanimousVoter[O]{Eq: func(a, b O) bool { return a == b }}
}

// Vote implements Voter.
func (v *UnanimousVoter[O]) Vote(proposals []Proposal[O]) Decision[O] {
	n := len(proposals)
	if n == 0 {
		return Decision[O]{Skipped: true, Reason: "no functional modules"}
	}
	for i := 1; i < n; i++ {
		if !v.Eq(proposals[0].Value, proposals[i].Value) {
			return Decision[O]{Skipped: true, Reason: "unanimity violated", Proposals: n}
		}
	}
	return Decision[O]{Value: proposals[0].Value, Agreeing: n, Proposals: n}
}

// PluralityVoter outputs the most common proposal without a majority
// threshold, breaking ties by the earliest proposer. It never skips unless
// there are no proposals — a contrast configuration for the ablation
// experiments (a plurality voter cannot "safely skip", which is exactly the
// property the paper credits for the two-version system's advantage).
type PluralityVoter[O any] struct {
	Eq Equal[O]
}

var _ Voter[int] = (*PluralityVoter[int])(nil)

// NewPluralityVoter returns a PluralityVoter over a comparable output type.
func NewPluralityVoter[O comparable]() *PluralityVoter[O] {
	return &PluralityVoter[O]{Eq: func(a, b O) bool { return a == b }}
}

// Vote implements Voter.
func (v *PluralityVoter[O]) Vote(proposals []Proposal[O]) Decision[O] {
	if len(proposals) == 0 {
		return Decision[O]{Skipped: true, Reason: "no functional modules"}
	}
	mv := MajorityVoter[O]{Eq: v.Eq}
	value, count := mv.largestCluster(proposals)
	return Decision[O]{Value: value, Agreeing: count, Proposals: len(proposals)}
}
