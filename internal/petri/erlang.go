package petri

import (
	"fmt"
)

// ErlangApproximation returns a copy of the net in which every
// deterministic transition is replaced by a k-stage Erlang phase chain of
// exponential transitions (each with mean delay/k). As k grows, the chain's
// firing-time distribution converges to the deterministic delay, so the
// transformed net — a CTMC for SolveDSPN — approximates the DSPN. This is
// the independent cross-check of SolveDSPN's exact solution.
//
// The original places keep their indices (new phase places are appended), so
// guards, weights and reward functions written against the original net keep
// working on markings of the transformed net. Guards and inhibitors of a
// deterministic transition are applied to the first stage only; the
// approximation is exact for the rejuvenation-clock pattern used in this
// repository, where the deterministic transition is never disabled while
// counting down.
func ErlangApproximation(net *Net, stages int) (*Net, error) {
	if stages < 1 {
		return nil, fmt.Errorf("petri: Erlang approximation needs at least 1 stage, got %d", stages)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}

	out := NewNet(net.Name() + "-erlang")
	placeMap := make(map[*Place]*Place, len(net.places))
	for _, p := range net.places {
		placeMap[p] = out.AddPlace(p.Name, p.Initial)
	}

	copyArcs := func(src, dst *Transition) {
		for _, a := range src.inputs {
			out.AddInput(placeMap[a.place], dst, a.weight)
		}
		for _, a := range src.outputs {
			out.AddOutput(dst, placeMap[a.place], a.weight)
		}
		for _, a := range src.inhibitors {
			out.AddInhibitor(placeMap[a.place], dst, a.weight)
		}
		dst.guard = src.guard
		dst.weight = src.weight
		dst.priority = src.priority
	}

	for _, t := range net.transitions {
		switch t.Kind {
		case Immediate:
			nt := out.AddImmediate(t.Name)
			copyArcs(t, nt)
		case Exponential:
			nt := out.AddExponential(t.Name, 1)
			copyArcs(t, nt)
			nt.delay = t.delay
		case Deterministic:
			// Build the phase chain: first stage consumes the original
			// inputs (and carries guard/inhibitors), intermediate stages
			// hop through fresh phase places, last stage produces the
			// original outputs.
			origDelay := t.delay
			stageDelay := func(m Marking) float64 {
				return origDelay(m) / float64(stages)
			}
			prevPlace := (*Place)(nil)
			for s := 0; s < stages; s++ {
				nt := out.AddExponential(fmt.Sprintf("%s#e%d", t.Name, s), 1)
				nt.SetDelayFunc(stageDelay)
				if s == 0 {
					for _, a := range t.inputs {
						out.AddInput(placeMap[a.place], nt, a.weight)
					}
					for _, a := range t.inhibitors {
						out.AddInhibitor(placeMap[a.place], nt, a.weight)
					}
					nt.guard = t.guard
				} else {
					out.AddInput(prevPlace, nt, 1)
				}
				if s == stages-1 {
					for _, a := range t.outputs {
						out.AddOutput(nt, placeMap[a.place], a.weight)
					}
				} else {
					phase := out.AddPlace(fmt.Sprintf("%s#p%d", t.Name, s), 0)
					out.AddOutput(nt, phase, 1)
					prevPlace = phase
				}
			}
		}
	}
	return out, nil
}
