package health

import "sort"

// AlphaEstimator measures the error-dependency degree α of the paper's
// reliability model (Eq. 8) online, from the voter disagreement stream:
// each decided round contributes, per version, whether that version
// disagreed with the voted output (its proxy error event), and α for a
// pair is the ratio of simultaneous disagreements to the larger of the two
// individual disagreement counts — exactly reliability.AlphaPairwise
// computed incrementally, so the reliability projection can consume a
// measured α instead of the offline fault-injection estimate.
type AlphaEstimator struct {
	rounds   uint64
	versions []string          // in first-seen order
	index    map[string]int    // version name → dense index
	disagree []uint64          // per version
	pair     map[[2]int]uint64 // i<j → simultaneous disagreements
}

// NewAlphaEstimator returns an empty estimator; versions register lazily as
// they first appear in the disagreement stream.
func NewAlphaEstimator() *AlphaEstimator {
	return &AlphaEstimator{index: map[string]int{}, pair: map[[2]int]uint64{}}
}

// ObserveRound feeds one decided voting round: diverged lists the versions
// whose proposal disagreed with the voted output (empty for a clean round).
func (a *AlphaEstimator) ObserveRound(diverged []string) {
	a.rounds++
	if len(diverged) == 0 {
		return
	}
	ids := make([]int, 0, len(diverged))
	for _, name := range diverged {
		id, ok := a.index[name]
		if !ok {
			id = len(a.versions)
			a.index[name] = id
			a.versions = append(a.versions, name)
			a.disagree = append(a.disagree, 0)
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for k, i := range ids {
		if k > 0 && ids[k-1] == i {
			continue // duplicate name in one round
		}
		a.disagree[i]++
		for _, j := range ids[k+1:] {
			if j == i {
				continue
			}
			a.pair[[2]int{i, j}]++
		}
	}
}

// PairAlpha is one version pair's measured dependency.
type PairAlpha struct {
	A     string  `json:"a"`
	B     string  `json:"b"`
	Both  uint64  `json:"both"`
	MaxN  uint64  `json:"max_n"`
	Alpha float64 `json:"alpha"`
}

// Pairs returns the per-pair α values in deterministic (registration
// sorted) order, only for pairs where at least one version has disagreed.
func (a *AlphaEstimator) Pairs() []PairAlpha {
	names := append([]string(nil), a.versions...)
	sort.Strings(names)
	var out []PairAlpha
	for x, na := range names {
		for _, nb := range names[x+1:] {
			i, j := a.index[na], a.index[nb]
			if i > j {
				i, j = j, i
			}
			maxN := a.disagree[i]
			if a.disagree[j] > maxN {
				maxN = a.disagree[j]
			}
			if maxN == 0 {
				continue
			}
			both := a.pair[[2]int{i, j}]
			out = append(out, PairAlpha{
				A: na, B: nb, Both: both, MaxN: maxN,
				Alpha: float64(both) / float64(maxN),
			})
		}
	}
	return out
}

// Alpha returns the overall dependency estimate — the mean of the pairwise
// values (the paper's Eq. 9 generalisation) — and whether any pair has
// data yet. With no disagreements at all it reports (0, false): fully
// independent as far as the stream can tell, but unmeasured.
func (a *AlphaEstimator) Alpha() (float64, bool) {
	pairs := a.Pairs()
	if len(pairs) == 0 {
		return 0, false
	}
	var sum float64
	for _, p := range pairs {
		sum += p.Alpha
	}
	return sum / float64(len(pairs)), true
}
