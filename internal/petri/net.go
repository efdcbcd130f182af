// Package petri implements Deterministic and Stochastic Petri Nets (DSPNs),
// the modelling substrate the paper evaluates with TimeNET. Nets are built
// programmatically from places, immediate / exponential / deterministic
// transitions, weighted arcs, inhibitor arcs, guard predicates and
// marking-dependent firing weights (Table I of the paper uses all of these).
//
// The solver is exact (solve.go): one breadth-first walk builds the tangible
// reachability graph, which is a continuous-time Markov chain for nets
// without deterministic transitions and a Markov regenerative process for
// nets with one deterministic clock enabled in every tangible marking, the
// class of the paper's Fig. 3. Solution.Transient evaluates the same graph
// at any mission time. Two independent cross-checks stay beside it:
// transient.go estimates mission-time rewards by Monte-Carlo replications,
// and erlang.go approximates deterministic transitions by Erlang phase
// chains that the CTMC case solves.
//
// Timed transitions fire with single-server semantics: the firing rate does
// not scale with the token count of input places. This matches TimeNET's
// default and — as verified against the paper's Table V — is the semantics
// under which the paper's reliability numbers are reproduced exactly. Use
// SetDelayFunc for marking-dependent rates if infinite-server behaviour is
// wanted.
package petri

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates transition timing semantics.
type Kind int

// Transition kinds.
const (
	// Immediate transitions fire in zero time, with conflicts resolved by
	// priority first and probabilistic weights second.
	Immediate Kind = iota + 1
	// Exponential transitions fire after an exponentially distributed
	// delay (memoryless).
	Exponential
	// Deterministic transitions fire after a fixed delay, with enabling
	// memory: the countdown pauses state only while continuously enabled
	// and resets when the transition is disabled or fires.
	Deterministic
)

func (k Kind) String() string {
	switch k {
	case Immediate:
		return "immediate"
	case Exponential:
		return "exponential"
	case Deterministic:
		return "deterministic"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Place holds tokens.
type Place struct {
	Name    string
	Initial int

	index int
}

// Marking is the token count per place, indexed by the place's position
// in the net.
type Marking []int

// Count returns the token count of a place.
func (m Marking) Count(p *Place) int { return m[p.index] }

// Key returns a compact string key identifying the marking.
func (m Marking) Key() string {
	var sb strings.Builder
	for i, v := range m {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(v))
	}
	return sb.String()
}

// Clone returns a copy of the marking.
func (m Marking) Clone() Marking {
	c := make(Marking, len(m))
	copy(c, m)
	return c
}

type arc struct {
	place  *Place
	weight int
}

// Transition moves tokens between places.
type Transition struct {
	Name string
	Kind Kind

	// delay returns the mean delay (Exponential) or the fixed delay
	// (Deterministic) in the given marking. Unused for Immediate.
	delay func(Marking) float64
	// weight returns the conflict-resolution weight for Immediate
	// transitions (defaults to 1).
	weight func(Marking) float64
	// guard must return true for the transition to be enabled
	// (defaults to always true).
	guard    func(Marking) bool
	priority int

	inputs     []arc
	outputs    []arc
	inhibitors []arc

	index int
}

// SetGuard attaches an enabling predicate (guard function over the marking).
func (t *Transition) SetGuard(g func(Marking) bool) *Transition {
	t.guard = g
	return t
}

// SetWeight attaches a marking-dependent firing weight used to resolve
// conflicts between simultaneously enabled immediate transitions — the
// mechanism behind the paper's w1/w2 healthy-vs-compromised selection.
func (t *Transition) SetWeight(w func(Marking) float64) *Transition {
	t.weight = w
	return t
}

// SetPriority sets the immediate-transition priority; higher fires first.
func (t *Transition) SetPriority(p int) *Transition {
	t.priority = p
	return t
}

// SetDelayFunc replaces the constant delay with a marking-dependent one.
// For Exponential transitions the returned value is the mean delay, so
// infinite-server semantics is expressed as baseMean/float64(tokens).
func (t *Transition) SetDelayFunc(f func(Marking) float64) *Transition {
	t.delay = f
	return t
}

// Weight evaluates the transition's conflict weight in a marking.
func (t *Transition) Weight(m Marking) float64 {
	if t.weight == nil {
		return 1
	}
	return t.weight(m)
}

// Delay evaluates the transition's (mean) delay in a marking.
func (t *Transition) Delay(m Marking) float64 {
	return t.delay(m)
}

// Net is a Petri net under construction or in use. It is immutable once
// handed to a solver; build it fully first.
type Net struct {
	name        string
	places      []*Place
	transitions []*Transition
}

// NewNet returns an empty net.
func NewNet(name string) *Net {
	return &Net{name: name}
}

// Name returns the net's name.
func (n *Net) Name() string { return n.name }

// AddPlace adds a place holding the given initial token count.
func (n *Net) AddPlace(name string, initial int) *Place {
	p := &Place{Name: name, Initial: initial, index: len(n.places)}
	n.places = append(n.places, p)
	return p
}

func (n *Net) addTransition(name string, kind Kind, delay float64) *Transition {
	t := &Transition{
		Name:  name,
		Kind:  kind,
		delay: func(Marking) float64 { return delay },
		index: len(n.transitions),
	}
	n.transitions = append(n.transitions, t)
	return t
}

// AddImmediate adds an immediate transition.
func (n *Net) AddImmediate(name string) *Transition {
	return n.addTransition(name, Immediate, 0)
}

// AddExponential adds an exponential transition with the given mean delay.
func (n *Net) AddExponential(name string, meanDelay float64) *Transition {
	return n.addTransition(name, Exponential, meanDelay)
}

// AddDeterministic adds a deterministic transition with the given delay.
func (n *Net) AddDeterministic(name string, delay float64) *Transition {
	return n.addTransition(name, Deterministic, delay)
}

// AddInput adds an input arc: firing t consumes weight tokens from p.
func (n *Net) AddInput(p *Place, t *Transition, weight int) {
	t.inputs = append(t.inputs, arc{place: p, weight: weight})
}

// AddOutput adds an output arc: firing t produces weight tokens in p.
func (n *Net) AddOutput(t *Transition, p *Place, weight int) {
	t.outputs = append(t.outputs, arc{place: p, weight: weight})
}

// AddInhibitor adds an inhibitor arc: t is disabled while p holds at least
// weight tokens.
func (n *Net) AddInhibitor(p *Place, t *Transition, weight int) {
	t.inhibitors = append(t.inhibitors, arc{place: p, weight: weight})
}

// InitialMarking returns the marking defined by the places' initial tokens.
func (n *Net) InitialMarking() Marking {
	m := make(Marking, len(n.places))
	for _, p := range n.places {
		m[p.index] = p.Initial
	}
	return m
}

// Validate checks structural well-formedness.
func (n *Net) Validate() error {
	if len(n.places) == 0 {
		return errors.New("petri: net has no places")
	}
	if len(n.transitions) == 0 {
		return errors.New("petri: net has no transitions")
	}
	names := make(map[string]bool, len(n.places))
	for _, p := range n.places {
		if p.Name == "" {
			return errors.New("petri: unnamed place")
		}
		if names[p.Name] {
			return fmt.Errorf("petri: duplicate place name %q", p.Name)
		}
		names[p.Name] = true
		if p.Initial < 0 {
			return fmt.Errorf("petri: place %q has negative initial marking", p.Name)
		}
	}
	tnames := make(map[string]bool, len(n.transitions))
	for _, t := range n.transitions {
		if t.Name == "" {
			return errors.New("petri: unnamed transition")
		}
		if tnames[t.Name] {
			return fmt.Errorf("petri: duplicate transition name %q", t.Name)
		}
		tnames[t.Name] = true
		for _, a := range append(append(append([]arc(nil), t.inputs...), t.outputs...), t.inhibitors...) {
			if a.weight <= 0 {
				return fmt.Errorf("petri: transition %q has non-positive arc weight", t.Name)
			}
			if a.place.index >= len(n.places) || n.places[a.place.index] != a.place {
				return fmt.Errorf("petri: transition %q references a place not in this net", t.Name)
			}
		}
		if t.Kind != Immediate {
			m := n.InitialMarking()
			if d := t.Delay(m); d <= 0 {
				return fmt.Errorf("petri: transition %q has non-positive delay %v in the initial marking", t.Name, d)
			}
		}
	}
	return nil
}

// EnabledIn reports whether t is enabled in marking m: guard satisfied,
// every input place sufficiently marked, every inhibitor place below its
// threshold.
func (t *Transition) EnabledIn(m Marking) bool {
	if t.guard != nil && !t.guard(m) {
		return false
	}
	for _, a := range t.inputs {
		if m[a.place.index] < a.weight {
			return false
		}
	}
	for _, a := range t.inhibitors {
		if m[a.place.index] >= a.weight {
			return false
		}
	}
	return true
}

// Fire returns the marking after firing t in m. It returns an error if t is
// not enabled.
func (n *Net) Fire(m Marking, t *Transition) (Marking, error) {
	if !t.EnabledIn(m) {
		return nil, fmt.Errorf("petri: transition %q not enabled in marking %s", t.Name, m.Key())
	}
	next := m.Clone()
	for _, a := range t.inputs {
		next[a.place.index] -= a.weight
	}
	for _, a := range t.outputs {
		next[a.place.index] += a.weight
	}
	return next, nil
}

// enabled collects the enabled transitions that are timed (exponential or
// deterministic) or, with timed false, immediate.
func (n *Net) enabled(m Marking, timed bool) []*Transition {
	var out []*Transition
	for _, t := range n.transitions {
		if (t.Kind != Immediate) == timed && t.EnabledIn(m) {
			out = append(out, t)
		}
	}
	return out
}

// EnabledImmediate returns the enabled immediate transitions of maximal
// priority; firing probability among them is proportional to their weights.
func (n *Net) EnabledImmediate(m Marking) []*Transition {
	candidates := n.enabled(m, false)
	if len(candidates) == 0 {
		return nil
	}
	best := candidates[0].priority
	for _, t := range candidates[1:] {
		if t.priority > best {
			best = t.priority
		}
	}
	out := candidates[:0]
	for _, t := range candidates {
		if t.priority == best {
			out = append(out, t)
		}
	}
	return out
}

// EnabledTimed returns the enabled exponential and deterministic transitions.
func (n *Net) EnabledTimed(m Marking) []*Transition { return n.enabled(m, true) }
