package petri

import (
	"errors"
	"fmt"

	"mvml/internal/stats"
	"mvml/internal/xrand"
)

// SimConfig controls a Monte-Carlo simulation run.
type SimConfig struct {
	// Horizon is the simulated time to observe after warmup.
	Horizon float64
	// Warmup is discarded simulated time before measurement starts.
	Warmup float64
	// Batches is the number of batch-means windows for the reward CI
	// (default 20).
	Batches int
	// Level is the CI confidence level (default 0.95).
	Level float64
	// MaxEvents bounds the number of transition firings (default 50e6).
	MaxEvents int
}

func (c *SimConfig) fillDefaults() {
	if c.Batches == 0 {
		c.Batches = 20
	}
	if c.Level == 0 {
		c.Level = 0.95
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 50_000_000
	}
}

// Validate reports configuration errors.
func (c SimConfig) Validate() error {
	if c.Horizon <= 0 {
		return fmt.Errorf("petri: non-positive horizon %v", c.Horizon)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("petri: negative warmup %v", c.Warmup)
	}
	if c.Batches < 2 {
		return fmt.Errorf("petri: need at least 2 batches, got %d", c.Batches)
	}
	return nil
}

// SimResult summarises a simulation run.
type SimResult struct {
	// Occupancy is the fraction of observed time spent in each tangible
	// marking, keyed by Marking.Key().
	Occupancy map[string]float64
	// MarkingOf maps keys back to markings.
	MarkingOf map[string]Marking
	// Reward is the time-averaged reward (when a reward function was
	// supplied), with a batch-means confidence interval.
	Reward   float64
	RewardCI stats.Interval
	// Events is the number of transitions fired.
	Events int
	// Observed is the measured (post-warmup) simulated time.
	Observed float64
}

// Probability sums the occupancy of markings satisfying pred.
func (r *SimResult) Probability(pred func(Marking) bool) float64 {
	var total float64
	for key, frac := range r.Occupancy {
		if pred(r.MarkingOf[key]) {
			total += frac
		}
	}
	return total
}

// maxImmediateChain bounds consecutive zero-time firings to detect
// immediate-transition livelock.
const maxImmediateChain = 100_000

// Simulate runs the DSPN from its initial marking for cfg.Warmup+cfg.Horizon
// simulated time units and returns time-average statistics. reward may be
// nil when only occupancy is of interest.
//
// Semantics: immediate transitions fire first (highest priority, then
// weight-proportional random choice); exponential transitions are resampled
// in every tangible marking (statistically equivalent to race semantics by
// memorylessness, and required for marking-dependent rates); deterministic
// transitions use enabling memory — their countdown continues across
// markings while they remain enabled and resets when disabled.
func Simulate(net *Net, cfg SimConfig, reward func(Marking) float64, rng *xrand.Rand) (*SimResult, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("petri: nil rng")
	}

	m := net.InitialMarking()
	res := &SimResult{
		Occupancy: make(map[string]float64),
		MarkingOf: make(map[string]Marking),
	}
	detRemaining := make(map[*Transition]float64)
	batchReward := make([]float64, cfg.Batches)
	batchTime := make([]float64, cfg.Batches)
	batchLen := cfg.Horizon / float64(cfg.Batches)
	end := cfg.Warmup + cfg.Horizon

	var now float64

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
			t := enabled[rng.Categorical(weights)]
			next, err := net.Fire(m, t)
			if err != nil {
				return err
			}
			m = next
			res.Events++
			// Drop deterministic clocks of transitions the firing disabled.
			for dt := range detRemaining {
				if !dt.EnabledIn(m) {
					delete(detRemaining, dt)
				}
			}
		}
	}

	// accumulate records a dwell of length dt in marking m starting at
	// time `from`, splitting it across warmup and batch windows.
	accumulate := func(from, dt float64) {
		if dt <= 0 {
			return
		}
		start := from
		stop := from + dt
		if stop <= cfg.Warmup {
			return
		}
		if start < cfg.Warmup {
			start = cfg.Warmup
		}
		if stop > end {
			stop = end
		}
		if stop <= start {
			return
		}
		key := m.Key()
		if _, ok := res.MarkingOf[key]; !ok {
			res.MarkingOf[key] = m.Clone()
		}
		res.Occupancy[key] += stop - start
		res.Observed += stop - start

		var rw float64
		if reward != nil {
			rw = reward(m)
		}
		// Split over batch windows.
		for start < stop {
			b := int((start - cfg.Warmup) / batchLen)
			if b >= cfg.Batches {
				b = cfg.Batches - 1
			}
			winEnd := cfg.Warmup + float64(b+1)*batchLen
			seg := stop - start
			if winEnd-start < seg {
				seg = winEnd - start
			}
			if seg <= 0 {
				break
			}
			batchTime[b] += seg
			batchReward[b] += rw * seg
			start += seg
		}
	}

	if err := fireImmediates(); err != nil {
		return nil, err
	}

	for now < end {
		if res.Events > cfg.MaxEvents {
			return nil, fmt.Errorf("petri: exceeded %d events at t=%v", cfg.MaxEvents, now)
		}
		timed := net.EnabledTimed(m)
		if len(timed) == 0 {
			// Absorbing marking: dwell until the horizon.
			accumulate(now, end-now)
			break
		}
		// Determine the winning transition and its delay.
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
		if now+minDelay > end {
			// Horizon reached before the next firing.
			accumulate(now, end-now)
			break
		}
		accumulate(now, minDelay)
		now += minDelay
		// Age the deterministic clocks that were running.
		for t, rem := range detRemaining {
			if t == winner {
				delete(detRemaining, t)
				continue
			}
			detRemaining[t] = rem - minDelay
		}
		next, err := net.Fire(m, winner)
		if err != nil {
			return nil, err
		}
		m = next
		res.Events++
		for t := range detRemaining {
			if !t.EnabledIn(m) {
				delete(detRemaining, t)
			}
		}
		if err := fireImmediates(); err != nil {
			return nil, err
		}
	}

	// Normalise occupancy.
	if res.Observed > 0 {
		for k := range res.Occupancy {
			res.Occupancy[k] /= res.Observed
		}
	}
	if reward != nil {
		means := make([]float64, 0, cfg.Batches)
		var total, totalTime float64
		for b := 0; b < cfg.Batches; b++ {
			if batchTime[b] > 0 {
				means = append(means, batchReward[b]/batchTime[b])
			}
			total += batchReward[b]
			totalTime += batchTime[b]
		}
		if totalTime > 0 {
			res.Reward = total / totalTime
		}
		if len(means) >= 2 {
			ci, err := stats.MeanCI(means, cfg.Level)
			if err == nil {
				res.RewardCI = ci
			}
		}
	}
	return res, nil
}
