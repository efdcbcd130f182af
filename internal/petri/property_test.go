package petri

import (
	"math"
	"testing"
	"testing/quick"

	"mvml/internal/xrand"
)

// randomErgodicNet builds a random strongly connected exponential-only net:
// a token ring of 3-6 places with random mean delays plus random "shortcut"
// transitions, guaranteeing every marking stays reachable. It is used to
// cross-validate the two solvers on arbitrary structures.
func randomErgodicNet(seed uint64) (*Net, []*Place) {
	r := xrand.New(seed)
	n := 3 + r.Intn(4)
	net := NewNet("random")
	places := make([]*Place, n)
	for i := range places {
		initial := 0
		if i == 0 {
			initial = 1
		}
		places[i] = net.AddPlace(placeName(i), initial)
	}
	// Ring transitions keep the chain irreducible.
	for i := range places {
		t := net.AddExponential(transName(i), 0.5+4*r.Float64())
		net.AddInput(places[i], t, 1)
		net.AddOutput(t, places[(i+1)%n], 1)
	}
	// Random extra shortcuts.
	extra := r.Intn(3)
	for k := 0; k < extra; k++ {
		from := r.Intn(n)
		to := r.Intn(n)
		if from == to {
			continue
		}
		t := net.AddExponential(transName(100+k), 0.5+4*r.Float64())
		net.AddInput(places[from], t, 1)
		net.AddOutput(t, places[to], 1)
	}
	return net, places
}

func placeName(i int) string { return "P" + string(rune('A'+i)) }
func transName(i int) string {
	if i >= 100 {
		return "S" + string(rune('A'+i-100))
	}
	return "T" + string(rune('A'+i))
}

// TestPropertyCTMCDistribution: the exact solver returns a probability
// distribution for any random ergodic net.
func TestPropertyCTMCDistribution(t *testing.T) {
	f := func(seed uint64) bool {
		net, _ := randomErgodicNet(seed)
		res, err := SolveDSPN(net)
		if err != nil {
			return false
		}
		var total float64
		for _, p := range res.Pi {
			if p < -1e-12 {
				return false
			}
			total += p
		}
		return math.Abs(total-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySimulationMatchesCTMC: on random ergodic nets the
// replications and the exact transient agree at every place, early and
// late.
func TestPropertySimulationMatchesCTMC(t *testing.T) {
	f := func(seed uint64) bool {
		net, places := randomErgodicNet(seed)
		exact, err := SolveDSPN(net)
		if err != nil {
			return false
		}
		times := []float64{1, 20}
		for _, p := range places {
			inP := func(m Marking) float64 { return float64(m.Count(p)) }
			sim, err := TransientRewards(net, TransientConfig{Times: times, Replications: 400}, inP, xrand.New(seed+2))
			if err != nil {
				return false
			}
			for i, at := range times {
				dist, err := exact.Transient(at)
				if err != nil {
					return false
				}
				var want float64
				for j, m := range exact.States {
					want += dist[j] * inP(m)
				}
				if math.Abs(sim[i].Reward.Mean-want) > 0.1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTokenConservation: in a conservative net (every transition
// consumes and produces exactly one token), the total token count is
// invariant under any firing sequence.
func TestPropertyTokenConservation(t *testing.T) {
	f := func(seed uint64) bool {
		net, _ := randomErgodicNet(seed)
		m := net.InitialMarking()
		total := func(m Marking) int {
			sum := 0
			for _, v := range m {
				sum += v
			}
			return sum
		}
		want := total(m)
		r := xrand.New(seed + 3)
		for step := 0; step < 200; step++ {
			enabled := net.EnabledTimed(m)
			if len(enabled) == 0 {
				break
			}
			next, err := net.Fire(m, enabled[r.Intn(len(enabled))])
			if err != nil {
				return false
			}
			m = next
			if total(m) != want {
				return false
			}
			for _, v := range m {
				if v < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyErlangConsistency: replacing a deterministic transition with
// an Erlang chain leaves the on/off pattern's mean-value occupancy exact.
func TestPropertyErlangConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		onDelay := 1 + 9*r.Float64()
		offMean := 0.5 + 4*r.Float64()

		net := NewNet("duty")
		p1 := net.AddPlace("P1", 1)
		p2 := net.AddPlace("P2", 0)
		on := net.AddDeterministic("on", onDelay)
		net.AddInput(p1, on, 1)
		net.AddOutput(on, p2, 1)
		off := net.AddExponential("off", offMean)
		net.AddInput(p2, off, 1)
		net.AddOutput(off, p1, 1)

		approx, err := ErlangApproximation(net, 25)
		if err != nil {
			return false
		}
		res, err := SolveDSPN(approx)
		if err != nil {
			return false
		}
		got := res.Probability(func(m Marking) bool { return m[p2.Index()] == 1 })
		want := offMean / (onDelay + offMean)
		return math.Abs(got-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
