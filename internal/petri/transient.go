package petri

import (
	"errors"
	"fmt"
	"sort"

	"mvml/internal/parallel"
	"mvml/internal/stats"
	"mvml/internal/xrand"
)

// TransientConfig controls a transient (mission-time) analysis.
type TransientConfig struct {
	// Times are the observation instants (need not be sorted).
	Times []float64
	// Replications is the number of independent runs (default 1000).
	Replications int
	// Level is the CI confidence level (default 0.95).
	Level float64
	// MaxEvents bounds each replication (default 10e6).
	MaxEvents int
	// Workers bounds concurrent replications (<= 0 = GOMAXPROCS). Each
	// replication's stream is Split from the caller's rng, so results are
	// identical for every worker count.
	Workers int
}

func (c *TransientConfig) fillDefaults() {
	if c.Replications == 0 {
		c.Replications = 1000
	}
	if c.Level == 0 {
		c.Level = 0.95
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 10_000_000
	}
}

// TransientPoint is the estimated expected reward at one instant.
type TransientPoint struct {
	Time   float64
	Reward stats.Interval
}

// TransientRewards estimates E[reward(X(t))] at the requested instants by
// independent replications from the initial marking — the mission-time
// complement to the steady-state Simulate. Deterministic transitions are
// fully supported (each replication uses the same event semantics as
// Simulate).
func TransientRewards(net *Net, cfg TransientConfig, reward func(Marking) float64, rng *xrand.Rand) ([]TransientPoint, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	if reward == nil {
		return nil, errors.New("petri: nil reward function")
	}
	if rng == nil {
		return nil, errors.New("petri: nil rng")
	}
	if len(cfg.Times) == 0 {
		return nil, errors.New("petri: no observation times")
	}
	if cfg.Replications < 2 {
		return nil, fmt.Errorf("petri: need at least 2 replications, got %d", cfg.Replications)
	}
	times := append([]float64(nil), cfg.Times...)
	sort.Float64s(times)
	if times[0] < 0 {
		return nil, fmt.Errorf("petri: negative observation time %v", times[0])
	}

	// Fan the replications out: each one's generator is Split off the
	// caller's rng exactly as the sequential loop did, and the per-rep
	// reward vectors come back in replication order, so the estimates are
	// identical for any worker count.
	runs, err := parallel.Run(rng, "rep", cfg.Replications, parallel.Options{Workers: cfg.Workers}, func(rep int, repRNG *xrand.Rand) ([]float64, error) {
		return transientRun(net, times, cfg.MaxEvents, reward, repRNG)
	})
	if err != nil {
		return nil, err
	}
	samples := make([][]float64, len(times))
	for i := range samples {
		samples[i] = make([]float64, 0, cfg.Replications)
	}
	for _, vals := range runs {
		for i, v := range vals {
			samples[i] = append(samples[i], v)
		}
	}
	out := make([]TransientPoint, 0, len(times))
	for i, t := range times {
		ci, err := stats.MeanCI(samples[i], cfg.Level)
		if err != nil {
			return nil, err
		}
		out = append(out, TransientPoint{Time: t, Reward: ci})
	}
	return out, nil
}

// transientRun simulates one replication and samples the reward at each
// observation time.
func transientRun(net *Net, times []float64, maxEvents int, reward func(Marking) float64, rng *xrand.Rand) ([]float64, error) {
	m := net.InitialMarking()
	detRemaining := make(map[*Transition]float64)
	vals := make([]float64, 0, len(times))
	next := 0 // next observation index
	now := 0.0
	events := 0

	// fireImmediates resolves the entire vanishing chain at the current
	// instant.
	fireImmediates := func() error {
		for chain := 0; ; chain++ {
			enabled := net.EnabledImmediate(m)
			if len(enabled) == 0 {
				return nil
			}
			if chain >= maxImmediateChain {
				return fmt.Errorf("petri: immediate-transition livelock in marking %s", m.Key())
			}
			weights := make([]float64, len(enabled))
			for i, t := range enabled {
				weights[i] = t.Weight(m)
			}
			tr := enabled[rng.Categorical(weights)]
			nm, err := net.Fire(m, tr)
			if err != nil {
				return err
			}
			m = nm
			for dt := range detRemaining {
				if !dt.EnabledIn(m) {
					delete(detRemaining, dt)
				}
			}
		}
	}
	if err := fireImmediates(); err != nil {
		return nil, err
	}

	observeThrough := func(until float64) {
		for next < len(times) && times[next] <= until {
			vals = append(vals, reward(m))
			next++
		}
	}

	end := times[len(times)-1]
	for next < len(times) {
		if events > maxEvents {
			return nil, fmt.Errorf("petri: transient run exceeded %d events", maxEvents)
		}
		timed := net.EnabledTimed(m)
		if len(timed) == 0 {
			observeThrough(end)
			break
		}
		var winner *Transition
		minDelay := 0.0
		for _, t := range timed {
			var d float64
			switch t.Kind {
			case Exponential:
				d = rng.Exp(t.Delay(m))
			case Deterministic:
				rem, ok := detRemaining[t]
				if !ok {
					rem = t.Delay(m)
					detRemaining[t] = rem
				}
				d = rem
			}
			if winner == nil || d < minDelay {
				winner, minDelay = t, d
			}
		}
		// Observation instants strictly before the next firing see the
		// current marking.
		observeThrough(now + minDelay)
		if next >= len(times) {
			break
		}
		now += minDelay
		for t, rem := range detRemaining {
			if t == winner {
				delete(detRemaining, t)
				continue
			}
			detRemaining[t] = rem - minDelay
		}
		nm, err := net.Fire(m, winner)
		if err != nil {
			return nil, err
		}
		m = nm
		events++
		for t := range detRemaining {
			if !t.EnabledIn(m) {
				delete(detRemaining, t)
			}
		}
		if err := fireImmediates(); err != nil {
			return nil, err
		}
	}
	return vals, nil
}
