package core

import (
	"errors"
	"fmt"
	"math"

	"mvml/internal/xrand"
)

// SelectionMode chooses how the proactive rejuvenator picks its victim.
type SelectionMode int

// Proactive victim-selection policies.
const (
	// SelectByCount picks uniformly among functional modules, i.e. a
	// compromised module is chosen with probability #C/(#C+#H) — the
	// DSPN's w1/w2 weight functions (Table I).
	SelectByCount SelectionMode = iota + 1
	// SelectPreferCompromised picks a compromised module (when one
	// exists) with probability PreferProb, else a uniformly random
	// functional module — the 2/3-prioritisation policy of the CARLA
	// case study (§VII-A).
	SelectPreferCompromised
)

func (m SelectionMode) String() string {
	switch m {
	case SelectByCount:
		return "by_count"
	case SelectPreferCompromised:
		return "prefer_compromised"
	default:
		return fmt.Sprintf("SelectionMode(%d)", int(m))
	}
}

// Config parameterises a System.
type Config struct {
	// MeanTimeToCompromise is 1/λc: exponential mean of the H→C event.
	MeanTimeToCompromise float64
	// MeanTimeToFailure is 1/λ: exponential mean of the C→N event.
	MeanTimeToFailure float64
	// MeanReactiveRejuvenation is 1/μ: exponential mean of reactive
	// rejuvenation (one module at a time, as in the DSPN's Tr).
	MeanReactiveRejuvenation float64
	// MeanProactiveRejuvenation is 1/μr.
	MeanProactiveRejuvenation float64
	// RejuvenationInterval is 1/γ, the deterministic trigger period.
	// Zero disables proactive rejuvenation.
	RejuvenationInterval float64
	// Selection picks the proactive victim-selection policy
	// (default SelectByCount).
	Selection SelectionMode
	// PreferProb is the compromised-first probability for
	// SelectPreferCompromised (the case study uses 2/3).
	PreferProb float64
	// DisableFaults freezes the fault processes (modules stay healthy);
	// used by overhead measurements.
	DisableFaults bool
	// DisableReactive turns off reactive rejuvenation: crashed modules
	// stay non-functional. Together with RejuvenationInterval = 0 this is
	// the case study's "without rejuvenation" arm, where the ensemble
	// degrades monotonically over a run.
	DisableReactive bool
	// PerModuleClocks selects per-module fault clocks: every healthy
	// module carries its own exponential compromise timer (so the system
	// compromise rate scales with the healthy count), as in the CARLA
	// case study where "models become compromised sequentially". The
	// default (false) uses system-level single-server clocks, matching
	// the DSPN semantics of Figs. 2/3 under which the paper's Table V is
	// reproduced.
	PerModuleClocks bool
}

// CaseStudyConfig returns the CARLA case-study parameters of §VII-A:
// 1/λc = 8 s, 1/λ = 16 s, 1/μ = 1/μr = 0.5 s, 1/γ = 3 s, with the
// 2/3 compromised-first selection policy. Models "become compromised
// sequentially" (§VII-A), i.e. one system-level compromise process — the
// DSPN-aligned shared clocks, under which a 3 s rejuvenation interval can
// keep up with the 8 s compromise stream.
func CaseStudyConfig() Config {
	return Config{
		MeanTimeToCompromise:      8,
		MeanTimeToFailure:         16,
		MeanReactiveRejuvenation:  0.5,
		MeanProactiveRejuvenation: 0.5,
		RejuvenationInterval:      3,
		Selection:                 SelectPreferCompromised,
		PreferProb:                2.0 / 3.0,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.RejuvenationInterval < 0 {
		return fmt.Errorf("core: negative rejuvenation interval %v", c.RejuvenationInterval)
	}
	if c.RejuvenationInterval > 0 && c.MeanProactiveRejuvenation <= 0 {
		return fmt.Errorf("core: proactive rejuvenation mean %v must be positive", c.MeanProactiveRejuvenation)
	}
	if c.Selection == SelectPreferCompromised && (c.PreferProb < 0 || c.PreferProb > 1) {
		return fmt.Errorf("core: PreferProb %v outside [0,1]", c.PreferProb)
	}
	if c.DisableFaults {
		// Fault-process parameters are unused.
		return nil
	}
	if c.MeanTimeToCompromise <= 0 || c.MeanTimeToFailure <= 0 {
		return fmt.Errorf("core: fault-process means must be positive (1/λc=%v, 1/λ=%v)",
			c.MeanTimeToCompromise, c.MeanTimeToFailure)
	}
	if !c.DisableReactive && c.MeanReactiveRejuvenation <= 0 {
		return fmt.Errorf("core: reactive rejuvenation mean %v must be positive", c.MeanReactiveRejuvenation)
	}
	return nil
}

// Stats aggregates a system's decision outcomes and lifecycle events.
type Stats struct {
	Decisions  int // votes that produced an output
	Skips      int // safe skips (divergence or no functional modules)
	Inferences int // total inference rounds
	// Divergences counts the skips caused by disagreement between at least
	// one functional module pair (i.e. skips with a non-empty proposal
	// set); Skips - Divergences rounds had no functional modules at all.
	Divergences int
	// Compromises and Crashes count H→C and C→N transitions across all
	// modules.
	Compromises int
	Crashes     int
	// ReactiveRejuvenations and ProactiveRejuvenations count rejuvenation
	// starts by kind.
	ReactiveRejuvenations  int
	ProactiveRejuvenations int
}

// ratio is the shared zero-Inferences guard: every Stats accessor reports 0
// before the first inference round rather than NaN.
func (s Stats) ratio(n int) float64 {
	if s.Inferences == 0 {
		return 0
	}
	return float64(n) / float64(s.Inferences)
}

// SkipRatio is the fraction of rounds the voter skipped (the paper reports
// ≈2% for the case study).
func (s Stats) SkipRatio() float64 { return s.ratio(s.Skips) }

// DivergenceRatio is the fraction of rounds skipped due to module
// disagreement (excluding rounds with no functional modules).
func (s Stats) DivergenceRatio() float64 { return s.ratio(s.Divergences) }

// System is the executable multi-version architecture: N versioned modules,
// a trusted voter, stochastic fault processes, and the rejuvenation
// mechanism, driven along a simulated clock.
type System[I, O any] struct {
	modules []*Module[I, O]
	voter   Voter[O]
	cfg     Config
	rng     *xrand.Rand

	now      float64
	nextTick float64 // next proactive trigger expiry
	rejuv    *Rejuvenator
	states   []ModuleState // the modules' states, reused by processEventsAt

	// Single-server fault clocks (used unless cfg.PerModuleClocks).
	sysCompromiseAt float64
	sysCrashAt      float64

	stats     Stats
	occupancy map[State]float64
	observed  float64
}

// NewSystem builds a system over the given versions. The voter is trusted
// and assumed not to fail (fault model, §III).
func NewSystem[I, O any](versions []Version[I, O], voter Voter[O], cfg Config, rng *xrand.Rand) (*System[I, O], error) {
	if len(versions) == 0 {
		return nil, errors.New("core: need at least one version")
	}
	if voter == nil {
		return nil, errors.New("core: nil voter")
	}
	if rng == nil {
		return nil, errors.New("core: nil rng")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Selection == 0 {
		cfg.Selection = SelectByCount
	}
	s := &System[I, O]{
		voter:           voter,
		cfg:             cfg,
		rng:             rng,
		rejuv:           NewRejuvenator(cfg, rng),
		occupancy:       make(map[State]float64),
		nextTick:        math.Inf(1),
		sysCompromiseAt: math.Inf(1),
		sysCrashAt:      math.Inf(1),
	}
	if cfg.RejuvenationInterval > 0 {
		s.nextTick = cfg.RejuvenationInterval
	}
	names := make(map[string]bool, len(versions))
	for _, v := range versions {
		if names[v.Name()] {
			return nil, fmt.Errorf("core: duplicate version name %q", v.Name())
		}
		names[v.Name()] = true
		m := &Module[I, O]{
			version:      v,
			state:        Healthy,
			compromiseAt: math.Inf(1),
			crashAt:      math.Inf(1),
			rejuvDoneAt:  math.Inf(1),
		}
		if cfg.PerModuleClocks {
			m.compromiseAt = s.sampleCompromise(0)
		}
		s.modules = append(s.modules, m)
	}
	s.resampleSharedClocks(0)
	return s, nil
}

// resampleSharedClocks re-draws the system-level exponential fault clocks
// after a state change. By memorylessness this is statistically equivalent
// to letting a pending clock run, and it keeps the enabling conditions (a
// healthy module exists / a compromised module exists) in sync with the
// marking — exactly the DSPN's single-server Tc and Tf.
func (s *System[I, O]) resampleSharedClocks(now float64) {
	if s.cfg.PerModuleClocks || s.cfg.DisableFaults {
		return
	}
	anyHealthy, anyCompromised := false, false
	for _, m := range s.modules {
		switch m.state {
		case Healthy:
			anyHealthy = true
		case Compromised:
			anyCompromised = true
		}
	}
	if anyHealthy {
		s.sysCompromiseAt = now + s.rng.Exp(s.cfg.MeanTimeToCompromise)
	} else {
		s.sysCompromiseAt = math.Inf(1)
	}
	if anyCompromised {
		s.sysCrashAt = now + s.rng.Exp(s.cfg.MeanTimeToFailure)
	} else {
		s.sysCrashAt = math.Inf(1)
	}
}

// sampleCompromise draws the next per-module compromise time; it returns
// +Inf when faults are disabled or the system runs on shared single-server
// clocks (where resampleSharedClocks owns the fault schedule).
func (s *System[I, O]) sampleCompromise(now float64) float64 {
	if s.cfg.DisableFaults || !s.cfg.PerModuleClocks {
		return math.Inf(1)
	}
	return now + s.rng.Exp(s.cfg.MeanTimeToCompromise)
}

// Modules exposes the modules (read-mostly; callers must not mutate state).
func (s *System[I, O]) Modules() []*Module[I, O] { return s.modules }

// Stats returns decision counters.
func (s *System[I, O]) Stats() Stats { return s.stats }

// State returns the current (i, j, k) system state; modules under any form
// of rejuvenation count as non-functional.
func (s *System[I, O]) State() State {
	var st State
	for _, m := range s.modules {
		switch m.state {
		case Healthy:
			st.Healthy++
		case Compromised:
			st.Compromised++
		default:
			st.NonFunctional++
		}
	}
	return st
}

// Occupancy returns the fraction of simulated time spent in each system
// state since construction — directly comparable with the DSPN model's
// steady-state probabilities.
func (s *System[I, O]) Occupancy() map[State]float64 {
	out := make(map[State]float64, len(s.occupancy))
	if s.observed <= 0 {
		return out
	}
	for st, dur := range s.occupancy {
		out[st] = dur / s.observed
	}
	return out
}

// nextEventTime scans all pending events.
func (s *System[I, O]) nextEventTime() float64 {
	t := s.nextTick
	if s.sysCompromiseAt < t {
		t = s.sysCompromiseAt
	}
	if s.sysCrashAt < t {
		t = s.sysCrashAt
	}
	for _, m := range s.modules {
		if m.compromiseAt < t {
			t = m.compromiseAt
		}
		if m.crashAt < t {
			t = m.crashAt
		}
		if m.rejuvDoneAt < t {
			t = m.rejuvDoneAt
		}
	}
	return t
}

// Advance moves the simulated clock to target, processing every fault and
// rejuvenation event on the way.
func (s *System[I, O]) Advance(target float64) error {
	if target < s.now {
		return fmt.Errorf("core: cannot advance backwards from %v to %v", s.now, target)
	}
	for {
		next := s.nextEventTime()
		if next > target {
			s.dwell(target - s.now)
			s.now = target
			return nil
		}
		s.dwell(next - s.now)
		s.now = next
		if err := s.processEventsAt(next); err != nil {
			return err
		}
	}
}

func (s *System[I, O]) dwell(dt float64) {
	if dt <= 0 {
		return
	}
	s.occupancy[s.State()] += dt
	s.observed += dt
}

// compromiseModule performs the H→C transition on module i.
func (s *System[I, O]) compromiseModule(i int, t float64) error {
	m := s.modules[i]
	m.compromiseAt = math.Inf(1)
	m.state = Compromised
	m.degraded = true
	s.stats.Compromises++
	if err := m.version.Compromise(); err != nil {
		return fmt.Errorf("core: compromising %s: %w", m.Name(), err)
	}
	if s.cfg.PerModuleClocks {
		m.crashAt = t + s.rng.Exp(s.cfg.MeanTimeToFailure)
	}
	return nil
}

// crashModule performs the C→N transition on module i.
func (s *System[I, O]) crashModule(i int, t float64) {
	m := s.modules[i]
	m.crashAt = math.Inf(1)
	m.state = NonFunctional
	s.stats.Crashes++
}

// pickRandomInState returns a uniformly random module index in the given
// state, or -1 if none exists.
func (s *System[I, O]) pickRandomInState(st ModuleState) int {
	var idxs []int
	for i, m := range s.modules {
		if m.state == st {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return -1
	}
	return idxs[s.rng.Intn(len(idxs))]
}

// processEventsAt fires every event scheduled exactly at time t.
func (s *System[I, O]) processEventsAt(t float64) error {
	// Single-server fault clocks (DSPN semantics): one compromise / crash
	// event at a time, hitting a uniformly random eligible module.
	if s.sysCompromiseAt <= t {
		s.sysCompromiseAt = math.Inf(1)
		if i := s.pickRandomInState(Healthy); i >= 0 {
			if err := s.compromiseModule(i, t); err != nil {
				return err
			}
		}
	}
	if s.sysCrashAt <= t {
		s.sysCrashAt = math.Inf(1)
		if i := s.pickRandomInState(Compromised); i >= 0 {
			s.crashModule(i, t)
		}
	}
	for i, m := range s.modules {
		switch {
		case m.compromiseAt <= t && m.state == Healthy:
			if err := s.compromiseModule(i, t); err != nil {
				return err
			}

		case m.crashAt <= t && m.state == Compromised:
			s.crashModule(i, t)

		case m.rejuvDoneAt <= t && m.state == Rejuvenating:
			m.rejuvDoneAt = math.Inf(1)
			m.state = Healthy
			if m.degraded {
				if err := m.version.Restore(); err != nil {
					return fmt.Errorf("core: restoring %s: %w", m.Name(), err)
				}
				m.degraded = false
			}
			m.compromiseAt = s.sampleCompromise(t)
			s.rejuv.Done(i)
		}
	}
	// Proactive trigger expiry: register a pending trigger and reset the
	// clock (DSPN: Tac fires, Trt immediately returns the token to Prc).
	if t >= s.nextTick {
		s.rejuv.Tick()
		s.nextTick = t + s.cfg.RejuvenationInterval
	}
	// Start whatever the policy says is due: reactive repair first, then a
	// pending proactive trigger once g2 holds.
	s.states = s.states[:0]
	for _, m := range s.modules {
		s.states = append(s.states, m.state)
	}
	for {
		i, proactive, ok := s.rejuv.Next(s.states)
		if !ok {
			break
		}
		m := s.modules[i]
		mean := s.cfg.MeanReactiveRejuvenation
		if proactive {
			mean = s.cfg.MeanProactiveRejuvenation
			s.stats.ProactiveRejuvenations++
		} else {
			s.stats.ReactiveRejuvenations++
		}
		m.state, s.states[i] = Rejuvenating, Rejuvenating
		m.crashAt = math.Inf(1)
		m.compromiseAt = math.Inf(1)
		m.rejuvDoneAt = t + s.rng.Exp(mean)
	}
	// Re-arm the single-server fault clocks against the new state
	// (memorylessness makes re-drawing equivalent to continuing).
	s.resampleSharedClocks(t)
	return nil
}

// Infer advances the clock to time t and runs one voted inference round.
// Non-functional and rejuvenating modules contribute no proposal. The
// returned proposals allow callers to audit individual versions.
func (s *System[I, O]) Infer(t float64, in I) (Decision[O], []Proposal[O], error) {
	if err := s.Advance(t); err != nil {
		return Decision[O]{}, nil, err
	}
	proposals := make([]Proposal[O], 0, len(s.modules))
	for _, m := range s.modules {
		if !m.state.Functional() {
			continue
		}
		out, err := m.version.Infer(in)
		if err != nil {
			return Decision[O]{}, nil, fmt.Errorf("core: inference on %s: %w", m.Name(), err)
		}
		proposals = append(proposals, Proposal[O]{Module: m.Name(), Value: out})
	}
	d := s.voter.Vote(proposals)
	s.stats.Inferences++
	if d.Skipped {
		s.stats.Skips++
		if len(proposals) > 0 {
			s.stats.Divergences++
		}
	} else {
		s.stats.Decisions++
	}
	return d, proposals, nil
}
