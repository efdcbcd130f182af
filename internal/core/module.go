package core

import "fmt"

// ModuleState is the health state of an ML module.
type ModuleState int

// Module health states. Healthy and Compromised modules are functional
// (they answer inference requests); NonFunctional and Rejuvenating modules
// are not.
const (
	// Healthy modules behave as trained.
	Healthy ModuleState = iota + 1
	// Compromised modules remain responsive but may output errors
	// (the adversary keeps them alive to evade detection, §IV).
	Compromised
	// NonFunctional modules have crashed and no longer respond; the
	// voter's missing-proposal detection triggers reactive rejuvenation.
	NonFunctional
	// Rejuvenating modules are being reloaded (reactively or proactively)
	// and cannot process sensor data meanwhile.
	Rejuvenating
)

func (s ModuleState) String() string {
	switch s {
	case Healthy:
		return "H"
	case Compromised:
		return "C"
	case NonFunctional:
		return "N"
	case Rejuvenating:
		return "R"
	default:
		return fmt.Sprintf("ModuleState(%d)", int(s))
	}
}

// Functional reports whether a module in this state answers inference
// requests.
func (s ModuleState) Functional() bool {
	return s == Healthy || s == Compromised
}

// Module pairs a Version with its health state and event timers. Modules are
// owned and driven by a System.
type Module[I, O any] struct {
	version Version[I, O]
	state   ModuleState

	// Event times (simulated seconds); +Inf when not scheduled.
	compromiseAt float64 // pending H -> C
	crashAt      float64 // pending C -> N
	rejuvDoneAt  float64 // pending completion of an ongoing rejuvenation

	// wasCompromisedAtRejuvenation remembers whether Restore needs to be
	// called when rejuvenation finishes (the version was degraded).
	degraded bool
}

// Name returns the wrapped version's name.
func (m *Module[I, O]) Name() string { return m.version.Name() }

// State returns the module's current health state.
func (m *Module[I, O]) State() ModuleState { return m.state }
