package petri

import (
	"fmt"
	"math"
)

// maxCTMCStates bounds the tangible state space of the exact solver.
const maxCTMCStates = 20_000

// maxVanishingDepth bounds immediate-firing recursion during vanishing
// marking elimination.
const maxVanishingDepth = 10_000

// Solution is the exact solution of a net over its tangible reachability
// graph: the steady state, and what Transient needs to evaluate the
// distribution at any time from the initial marking.
type Solution struct {
	// States are the reachable tangible markings.
	States []Marking
	// Pi are the steady-state probabilities aligned with States.
	Pi []float64

	init []float64   // the initial marking's tangible distribution
	q    [][]float64 // generator of the exponential transitions
	p    [][]float64 // embedded chain e^{Qτ}Δ at the clock's firings (nil without a clock)
	tau  float64     // the clock's delay
}

// Probability sums steady-state probability over markings satisfying pred.
func (r *Solution) Probability(pred func(Marking) bool) float64 {
	var total float64
	for i, m := range r.States {
		if pred(m) {
			total += r.Pi[i]
		}
	}
	return total
}

// ExpectedReward computes the steady-state expectation of a reward function,
// i.e. Eq. 3 of the paper with R(m) as the per-state reward.
func (r *Solution) ExpectedReward(reward func(Marking) float64) float64 {
	var total float64
	for i, m := range r.States {
		total += r.Pi[i] * reward(m)
	}
	return total
}

// SolveDSPN computes the exact steady-state distribution of a net with at
// most one deterministic transition. Immediate transitions are allowed;
// vanishing markings are eliminated on the fly by following weighted
// immediate firings to the tangible successors.
//
// Without a deterministic transition the net is a CTMC with generator Q and
// π solves πQ = 0. With one, the clock τ, it must be enabled in every
// tangible marking and in every marking an exponential firing passes
// through, with one delay; its firings are then the regeneration points
// of a Markov regenerative process. With Δ the branching of τ's firing
// through the immediate transitions, the embedded chain is P = e^{Qτ}Δ, and
// π ∝ ν∫₀^τ e^{Qs}ds for νP = ν. Any other net is an error naming the
// offending transitions or marking.
func SolveDSPN(net *Net) (*Solution, error) {
	g, err := buildGraph(net)
	if err != nil {
		return nil, err
	}
	n := len(g.states)
	sol := &Solution{States: g.states, init: make([]float64, n), q: newMatrix(n), tau: g.tau}
	for _, b := range g.init {
		sol.init[g.index[b.m.Key()]] += b.p
	}
	q := sol.q
	for _, e := range g.rates {
		if e.from == e.to {
			continue // self-loops do not affect the distribution
		}
		q[e.from][e.to] += e.v
	}
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			if j != i {
				sum += q[i][j]
			}
		}
		q[i][i] = -sum
	}

	var pi []float64
	if g.clock == nil {
		pi, err = stationary(q, 0)
	} else {
		// e^{τA} for the augmented generator A = [[Q, I], [0, 0]] holds
		// e^{Qτ} top left and ∫₀^τ e^{Qs}ds top right.
		aug := newMatrix(2 * n)
		for i := 0; i < n; i++ {
			copy(aug[i], q[i])
			aug[i][n+i] = 1
		}
		e := expm(aug, g.tau)
		eq, delta := make([][]float64, n), newMatrix(n)
		for i := range eq {
			eq[i] = e[i][:n]
		}
		for _, d := range g.delta {
			delta[d.from][d.to] += d.v
		}
		sol.p = matMul(eq, delta)
		var nu []float64
		if nu, err = stationary(sol.p, 1); err == nil {
			pi = make([]float64, n)
			for i, v := range nu {
				for j := range pi {
					pi[j] += v * e[i][n+j]
				}
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("petri: steady-state solve failed: %w", err)
	}
	// Clean tiny negative round-off and renormalise.
	var total float64
	for i, v := range pi {
		if v < -1e-9 {
			return nil, fmt.Errorf("petri: negative steady-state probability %v for state %s", v, sol.States[i].Key())
		}
		pi[i] = max(v, 0)
		total += pi[i]
	}
	if total <= 0 {
		return nil, fmt.Errorf("petri: degenerate steady-state solution")
	}
	for i := range pi {
		pi[i] /= total
	}
	sol.Pi = pi
	return sol, nil
}

// Transient returns the distribution over States at time t ≥ 0 from the
// initial marking: p₀e^{Qt} without a deterministic transition, and
// p₀Pᵏe^{Qs} with t = kτ + s, 0 < s ≤ τ, with one. It is the left limit: a
// clock expiry at exactly t has not been applied yet, so an observer at
// t = τ sees the marking just before the clock fires, as TransientRewards
// samples it.
func (r *Solution) Transient(t float64) ([]float64, error) {
	if t < 0 || math.IsInf(t, 0) || math.IsNaN(t) {
		return nil, fmt.Errorf("petri: invalid observation time %v", t)
	}
	p := append([]float64(nil), r.init...)
	if t == 0 {
		return p, nil
	}
	if r.p != nil {
		k := math.Ceil(t/r.tau) - 1
		t -= k * r.tau
		for ; k > 0; k-- {
			p = vecMat(p, r.p)
		}
	}
	return vecMat(p, expm(r.q, t)), nil
}

// graph is a net's tangible reachability graph, the one structure every
// exact solution is computed from: the exponential rates and, for a net
// with a deterministic clock, the clock's branching, kept apart.
type graph struct {
	states []Marking
	index  map[string]int
	init   []branch
	rates  []edge // exponential firings: from, to, rate
	clock  *Transition
	tau    float64
	delta  []edge // the clock's firing: from, to, probability
}

type edge struct {
	from, to int
	v        float64
}

// branch is one tangible marking a resolution reaches, with its probability.
type branch struct {
	m Marking
	p float64
}

func (g *graph) add(m Marking) int {
	key := m.Key()
	if i, ok := g.index[key]; ok {
		return i
	}
	i := len(g.states)
	g.index[key] = i
	g.states = append(g.states, m.Clone())
	return i
}

// buildGraph explores the tangible reachability graph breadth-first from
// the initial marking.
func buildGraph(net *Net) (*graph, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	g := &graph{index: make(map[string]int)}
	for _, t := range net.transitions {
		if t.Kind != Deterministic {
			continue
		}
		if g.clock != nil {
			return nil, fmt.Errorf("petri: net %q has deterministic transitions %q and %q; the exact solver handles at most one", net.Name(), g.clock.Name, t.Name)
		}
		g.clock = t
	}
	init, err := resolve(net, net.InitialMarking(), 1, 0, nil, nil)
	if err != nil {
		return nil, err
	}
	g.init = init
	for _, b := range init {
		g.add(b.m)
	}
	// follow fires t in the head state and records each tangible successor
	// with its probability divided by div. running is a clock that must
	// stay enabled in every marking passed through.
	follow := func(head int, t, running *Transition, div float64, into *[]edge) error {
		next, err := net.Fire(g.states[head], t)
		if err != nil {
			return err
		}
		succ, err := resolve(net, next, 1, 0, running, nil)
		for _, b := range succ {
			*into = append(*into, edge{from: head, to: g.add(b.m), v: b.p / div})
		}
		return err
	}
	for head := 0; head < len(g.states); head++ {
		if len(g.states) > maxCTMCStates {
			return nil, fmt.Errorf("petri: tangible state space exceeds %d states", maxCTMCStates)
		}
		m := g.states[head]
		for _, t := range net.EnabledTimed(m) {
			if t == g.clock {
				continue
			}
			mean := t.Delay(m)
			if mean <= 0 || math.IsInf(mean, 0) || math.IsNaN(mean) {
				return nil, fmt.Errorf("petri: transition %q has invalid mean delay %v in marking %s", t.Name, mean, m.Key())
			}
			// The clock runs on through the firing.
			if err := follow(head, t, g.clock, mean, &g.rates); err != nil {
				return nil, err
			}
		}
		if g.clock == nil {
			continue
		}
		if !g.clock.EnabledIn(m) {
			return nil, fmt.Errorf("petri: deterministic transition %q is disabled in tangible marking %s", g.clock.Name, m.Key())
		}
		if d := g.clock.Delay(m); head == 0 {
			g.tau = d
		} else if d != g.tau {
			return nil, fmt.Errorf("petri: deterministic transition %q has delay %v in marking %s and %v in %s", g.clock.Name, d, m.Key(), g.tau, g.states[0].Key())
		}
		if err := follow(head, g.clock, nil, 1, &g.delta); err != nil {
			return nil, err
		}
	}
	if g.clock != nil && !(g.tau > 0 && !math.IsInf(g.tau, 0)) {
		return nil, fmt.Errorf("petri: deterministic transition %q has invalid delay %v", g.clock.Name, g.tau)
	}
	return g, nil
}

// resolve follows the immediate transitions enabled in m, by weight, to the
// tangible markings they reach, and appends each with its probability
// (merged per marking, in the order first reached). With a non-nil clock
// every marking passed through must enable it.
func resolve(net *Net, m Marking, prob float64, depth int, clock *Transition, out []branch) ([]branch, error) {
	if depth > maxVanishingDepth {
		return nil, fmt.Errorf("petri: immediate-transition livelock in marking %s", m.Key())
	}
	if clock != nil && !clock.EnabledIn(m) {
		return nil, fmt.Errorf("petri: deterministic transition %q is disabled in marking %s", clock.Name, m.Key())
	}
	enabled := net.EnabledImmediate(m)
	if len(enabled) == 0 {
		key := m.Key()
		for i := range out {
			if out[i].m.Key() == key {
				out[i].p += prob
				return out, nil
			}
		}
		return append(out, branch{m: m, p: prob}), nil
	}
	var totalW float64
	weights := make([]float64, len(enabled))
	for i, t := range enabled {
		weights[i] = max(t.Weight(m), 0)
		totalW += weights[i]
	}
	if totalW <= 0 {
		// All-zero weights: uniform choice.
		for i := range weights {
			weights[i] = 1
		}
		totalW = float64(len(enabled))
	}
	for i, t := range enabled {
		if weights[i] == 0 {
			continue
		}
		next, err := net.Fire(m, t)
		if err != nil {
			return nil, err
		}
		if out, err = resolve(net, next, prob*weights[i]/totalW, depth+1, clock, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// stationary solves x·(M − shift·I) = 0, Σx = 1 by Gaussian elimination on
// the transpose with the last equation replaced by the normalisation: shift
// 0 for a generator, 1 for a stochastic matrix.
func stationary(m [][]float64, shift float64) ([]float64, error) {
	n := len(m)
	a := make([][]float64, n)
	b := make([]float64, n)
	for c := 0; c < n; c++ {
		a[c] = make([]float64, n)
		for r := 0; r < n; r++ {
			a[c][r] = m[r][c] // transpose
		}
		a[c][c] -= shift
	}
	for j := 0; j < n; j++ {
		a[n-1][j] = 1
	}
	b[n-1] = 1
	return solveLinear(a, b)
}

// solveLinear solves a·x = b by Gaussian elimination with partial pivoting.
// a is modified in place.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-14 {
			return nil, fmt.Errorf("singular matrix at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[i] / a[i][i]
	}
	return x, nil
}

// expm returns e^{tA} by scaling and squaring: tA/2^s has a row-sum norm
// of at most 1/2, where 18 Taylor terms reach double precision.
func expm(a [][]float64, t float64) [][]float64 {
	var norm float64
	for _, row := range a {
		var s float64
		for _, v := range row {
			s += math.Abs(v * t)
		}
		norm = math.Max(norm, s)
	}
	_, squarings := math.Frexp(norm)
	squarings = max(squarings+1, 0)
	scale := math.Ldexp(t, -squarings)
	sum, term := newMatrix(len(a)), newMatrix(len(a))
	for i := range sum {
		sum[i][i], term[i][i] = 1, 1
	}
	for k := 1; k <= 18; k++ {
		term = matMul(term, a)
		for i := range term {
			for j := range term[i] {
				term[i][j] *= scale / float64(k)
				sum[i][j] += term[i][j]
			}
		}
	}
	for ; squarings > 0; squarings-- {
		sum = matMul(sum, sum)
	}
	return sum
}

func newMatrix(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	return m
}

func matMul(a, b [][]float64) [][]float64 {
	out := newMatrix(len(a))
	for i := range a {
		for k, v := range a[i] {
			if v == 0 {
				continue
			}
			for j := range out[i] {
				out[i][j] += v * b[k][j]
			}
		}
	}
	return out
}

// vecMat returns the row vector v·M.
func vecMat(v []float64, m [][]float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		for j := range out {
			out[j] += x * m[i][j]
		}
	}
	return out
}
