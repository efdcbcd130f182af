package core

import "mvml/internal/xrand"

// Rejuvenator is the paper's rejuvenation policy, the DSPN of Fig. 3, as a
// clock-free state machine: reactive repair runs one module at a time and
// goes ahead of proactive starts (the single-server Tr); a trigger expiry
// (Tac) stays pending until no module is non-functional or rejuvenating
// (guard g2); the proactive victim is drawn by w1/w2 (Config.Selection). It
// owns the pending trigger, the repair slot and the victim draw, and the
// caller owns the clock and the modules: System drives it on simulated time,
// serve.Server on wall time. Not safe for concurrent use.
type Rejuvenator struct {
	cfg       Config
	rng       *xrand.Rand
	pending   bool // a trigger expired and no proactive start took it yet
	repairing int  // index holding the repair slot, -1 if none
}

// NewRejuvenator reads cfg's Selection (0 selects SelectByCount), PreferProb
// and DisableReactive; rng draws the proactive victims.
func NewRejuvenator(cfg Config, rng *xrand.Rand) *Rejuvenator {
	if cfg.Selection == 0 {
		cfg.Selection = SelectByCount
	}
	return &Rejuvenator{cfg: cfg, rng: rng, repairing: -1}
}

// Tick records a trigger expiry (the DSPN's Tac). Expiries that land while
// one is pending collapse into it.
func (r *Rejuvenator) Tick() { r.pending = true }

// Done reports that module i finished rejuvenating, freeing the repair slot
// if i holds it.
func (r *Rejuvenator) Done(i int) {
	if r.repairing == i {
		r.repairing = -1
	}
}

// Next returns the next rejuvenation to start, or ok = false when none is
// due. The caller starts it (the module is then Rejuvenating) before asking
// again.
func (r *Rejuvenator) Next(states []ModuleState) (victim int, proactive, ok bool) {
	if r.repairing < 0 && !r.cfg.DisableReactive {
		for i, st := range states {
			if st == NonFunctional {
				r.repairing = i
				return i, false, true
			}
		}
	}
	if !r.pending {
		return -1, false, false
	}
	var all []int // healthy indices, then compromised
	for i, st := range states {
		if st == NonFunctional || st == Rejuvenating {
			return -1, false, false // g2
		}
		if st == Healthy {
			all = append(all, i)
		}
	}
	nh := len(all)
	for i, st := range states {
		if st == Compromised {
			all = append(all, i)
		}
	}
	r.pending = false
	if c := all[nh:]; r.cfg.Selection == SelectPreferCompromised && len(c) > 0 && r.rng.Bernoulli(r.cfg.PreferProb) {
		return c[r.rng.Intn(len(c))], true, true
	}
	// w1/w2: uniform over functional modules, so a compromised one is
	// chosen with probability #C/(#C+#H).
	return all[r.rng.Intn(len(all))], true, true
}
