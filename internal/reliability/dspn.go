package reliability

import (
	"fmt"

	"mvml/internal/core"
	"mvml/internal/petri"
	"mvml/internal/xrand"
)

// Model is a DSPN reliability model of an n-version ML system: the net of
// the paper's Fig. 2 (reactive rejuvenation only) or Fig. 3 (with the
// time-triggered proactive rejuvenation clock).
type Model struct {
	Net       *petri.Net
	N         int
	Params    Params
	Proactive bool

	// Module places (always present).
	Pmh, Pmc, Pmf *petri.Place
	// Proactive-rejuvenation places (nil without proactive rejuvenation).
	Pmr, Prc, Ptr, Pac *petri.Place
}

// smallWeight is the epsilon the paper's Table I uses so that immediate
// conflict weights never vanish.
const smallWeight = 0.00001

// NewModel builds the DSPN for an n-version system (1 <= n <= 3). With
// proactive=false it is the net of Fig. 2; with proactive=true the
// rejuvenation clock and trigger of Fig. 3 are added, with the guard
// functions g1–g3 and weight functions w1/w2 of Table I.
func NewModel(n int, params Params, proactive bool) (*Model, error) {
	if n < 1 || n > 3 {
		return nil, fmt.Errorf("reliability: model supports 1..3 modules, got %d", n)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}

	name := fmt.Sprintf("%d-version", n)
	if proactive {
		name += "-proactive"
	}
	net := petri.NewNet(name)
	m := &Model{Net: net, N: n, Params: params, Proactive: proactive}

	m.Pmh = net.AddPlace("Pmh", n)
	m.Pmc = net.AddPlace("Pmc", 0)
	m.Pmf = net.AddPlace("Pmf", 0)

	// Tc: a healthy module is compromised (stays responsive).
	tc := net.AddExponential("Tc", params.MeanTimeToCompromise)
	net.AddInput(m.Pmh, tc, 1)
	net.AddOutput(tc, m.Pmc, 1)

	// Tf: a compromised module crashes (becomes non-functional).
	tf := net.AddExponential("Tf", params.MeanTimeToFailure)
	net.AddInput(m.Pmc, tf, 1)
	net.AddOutput(tf, m.Pmf, 1)

	// Tr: reactive rejuvenation restores a non-functional module.
	tr := net.AddExponential("Tr", params.MeanReactiveRejuvenation)
	net.AddInput(m.Pmf, tr, 1)
	net.AddOutput(tr, m.Pmh, 1)

	if !proactive {
		return m, nil
	}

	m.Pmr = net.AddPlace("Pmr", 0)
	m.Prc = net.AddPlace("Prc", 1)
	m.Ptr = net.AddPlace("Ptr", 0)
	m.Pac = net.AddPlace("Pac", 0)

	pmh, pmc, pmf := m.Pmh, m.Pmc, m.Pmf
	pmr, prc, ptr, pac := m.Pmr, m.Prc, m.Ptr, m.Pac

	// Trc: the deterministic rejuvenation clock fires every 1/γ.
	trc := net.AddDeterministic("Trc", params.RejuvenationInterval)
	net.AddInput(prc, trc, 1)
	net.AddOutput(trc, ptr, 1)

	// Tac: registers a rejuvenation trigger (guard g1: #Ptr = 1). It does
	// not consume the clock token; Trt (below, higher priority) returns
	// the token to Prc as soon as a trigger or an ongoing rejuvenation
	// exists, which also stops Tac from firing twice for one expiry.
	tac := net.AddImmediate("Tac")
	tac.SetGuard(func(mk petri.Marking) bool { return mk.Count(ptr) == 1 })
	net.AddOutput(tac, pac, 1)

	// Trt: resets the clock (guard g3: #Pmr + #Pac > 0).
	trt := net.AddImmediate("Trt").SetPriority(10)
	trt.SetGuard(func(mk petri.Marking) bool { return mk.Count(pmr)+mk.Count(pac) > 0 })
	net.AddInput(ptr, trt, 1)
	net.AddOutput(trt, prc, 1)

	// Trj1: proactively rejuvenate a compromised module; Trj2: a healthy
	// one. Guard g2 ((#Pmf + #Pmr) < 1) gives reactive rejuvenation
	// precedence and serialises proactive rejuvenations; the inhibitor
	// arcs from Pmf model the same precedence structurally.
	g2 := func(mk petri.Marking) bool { return mk.Count(pmf)+mk.Count(pmr) < 1 }

	trj1 := net.AddImmediate("Trj1")
	trj1.SetGuard(g2)
	trj1.SetWeight(func(mk petri.Marking) float64 {
		c, h := mk.Count(pmc), mk.Count(pmh)
		if c == 0 {
			return smallWeight
		}
		return float64(c) / float64(c+h)
	})
	net.AddInput(pac, trj1, 1)
	net.AddInput(pmc, trj1, 1)
	net.AddOutput(trj1, pmr, 1)
	net.AddInhibitor(pmf, trj1, 1)

	trj2 := net.AddImmediate("Trj2")
	trj2.SetGuard(g2)
	trj2.SetWeight(func(mk petri.Marking) float64 {
		c, h := mk.Count(pmc), mk.Count(pmh)
		if h == 0 {
			return smallWeight
		}
		return float64(h) / float64(c+h)
	})
	net.AddInput(pac, trj2, 1)
	net.AddInput(pmh, trj2, 1)
	net.AddOutput(trj2, pmr, 1)
	net.AddInhibitor(pmf, trj2, 1)

	// Trj: the proactive rejuvenation itself takes 1/μr and returns the
	// module to the healthy state.
	trj := net.AddExponential("Trj", params.MeanProactiveRejuvenation)
	net.AddInput(pmr, trj, 1)
	net.AddOutput(trj, pmh, 1)

	return m, nil
}

// StateOf maps a marking to the (i, j, k) system state. Modules being
// proactively rejuvenated (Pmr) count as non-functional, as the paper notes
// that a module cannot process sensor data while rejuvenating.
func (m *Model) StateOf(mk petri.Marking) core.State {
	i := mk.Count(m.Pmh)
	j := mk.Count(m.Pmc)
	return core.State{Healthy: i, Compromised: j, NonFunctional: m.N - i - j}
}

// Reward returns the reliability reward function over markings, for use
// with the petri solvers.
func (m *Model) Reward() func(petri.Marking) float64 {
	return func(mk petri.Marking) float64 {
		r, err := m.Params.StateReliability(m.StateOf(mk))
		if err != nil {
			return 0
		}
		return r
	}
}

// Result is a solved reliability model.
type Result struct {
	// Expected is E[R_sys] (Eq. 3).
	Expected float64
	// StateProbs is the steady-state probability of each (i, j, k) state.
	StateProbs map[core.State]float64
}

// SolveExact computes the exact steady-state reliability: Fig. 2 as its
// CTMC, Fig. 3 as a Markov regenerative process whose regeneration points
// are the firings of the rejuvenation clock Trc (petri.SolveDSPN).
func (m *Model) SolveExact() (*Result, error) {
	sol, err := petri.SolveDSPN(m.Net)
	if err != nil {
		return nil, fmt.Errorf("reliability: exact solve of %s: %w", m.Net.Name(), err)
	}
	return m.result(sol.States, sol.Pi)
}

// SolveErlang approximates the deterministic rejuvenation clock with a
// k-stage Erlang chain and solves the resulting CTMC exactly. Larger stage
// counts approach SolveExact from below: the printed cross-check.
func (m *Model) SolveErlang(stages int) (*Result, error) {
	approx, err := petri.ErlangApproximation(m.Net, stages)
	if err != nil {
		return nil, err
	}
	sol, err := petri.SolveDSPN(approx)
	if err != nil {
		return nil, fmt.Errorf("reliability: Erlang solve of %s: %w", m.Net.Name(), err)
	}
	return m.result(sol.States, sol.Pi)
}

// result maps a distribution over markings to one over (i, j, k) states and
// its Eq. 3 expectation.
func (m *Model) result(markings []petri.Marking, probs []float64) (*Result, error) {
	res := &Result{StateProbs: make(map[core.State]float64)}
	for i, mk := range markings {
		res.StateProbs[m.StateOf(mk)] += probs[i]
	}
	expected, err := ExpectedReliability(res.StateProbs, m.Params)
	if err != nil {
		return nil, err
	}
	res.Expected = expected
	return res, nil
}

// TransientExact returns the exact expected output reliability E[R(t)] at
// the given mission times, starting from the all-healthy initial state —
// the mission-time complement to the steady-state Eq. 3 analysis. At a
// multiple of the rejuvenation interval it is the left limit, before that
// clock expiry is applied (petri.Solution.Transient).
func (m *Model) TransientExact(times []float64) ([]float64, error) {
	sol, err := petri.SolveDSPN(m.Net)
	if err != nil {
		return nil, fmt.Errorf("reliability: exact solve of %s: %w", m.Net.Name(), err)
	}
	out := make([]float64, len(times))
	for i, t := range times {
		p, err := sol.Transient(t)
		if err != nil {
			return nil, err
		}
		res, err := m.result(sol.States, p)
		if err != nil {
			return nil, err
		}
		out[i] = res.Expected
	}
	return out, nil
}

// TransientReliability estimates E[R(t)] at the given mission times by
// independent replications (petri.TransientRewards), the Monte-Carlo
// cross-check of TransientExact. Replications fan out over `workers`
// goroutines (<= 0 = GOMAXPROCS); the estimates are identical for every
// worker count.
func (m *Model) TransientReliability(times []float64, replications, workers int, rng *xrand.Rand) ([]petri.TransientPoint, error) {
	cfg := petri.TransientConfig{Times: times, Replications: replications, Workers: workers}
	points, err := petri.TransientRewards(m.Net, cfg, m.Reward(), rng)
	if err != nil {
		return nil, fmt.Errorf("reliability: transient analysis of %s: %w", m.Net.Name(), err)
	}
	return points, nil
}
