// Package health is the streaming judgment layer over the observability
// substrate: it subscribes to the span firehose (implementing
// obs.SpanObserver) and turns raw latency, queue-depth and voter
// disagreement streams into explainable health verdicts — windowed anomaly
// detection, SLO error budgets with multi-window burn rates, an online
// error-dependency (α) estimator, and a per-component health state machine.
//
// Every detector is deterministic: state advances only on observed span
// records (never on wall-clock reads), so replaying the same spans.jsonl
// yields bit-identical verdicts to the live run that produced it. That is
// the property `mvtrace health` relies on, and it mirrors the repo-wide rule
// that telemetry must never change behaviour — the engine reads the
// firehose, it does not touch the serving path.
package health

import "math"

// EWMA is an exponentially-weighted moving average anomaly detector: it
// tracks an EW mean and EW variance of a stream and flags observations
// whose z-score against the pre-update statistics exceeds Z. The classic
// EWMA control chart, cheap enough for per-span use.
type EWMA struct {
	// Lambda is the smoothing factor in (0,1]; smaller = longer memory.
	Lambda float64
	// Z is the anomaly threshold in standard deviations.
	Z float64
	// Warmup is how many observations seed the baseline before the
	// detector may flag anything.
	Warmup int

	n        int
	mean, vr float64
}

// Observe feeds one sample and reports its z-score against the pre-update
// baseline plus whether it is anomalous. The baseline always absorbs the
// sample afterwards, so a sustained shift eventually becomes the new
// normal — change-point detection is CUSUM's job, not EWMA's.
func (e *EWMA) Observe(x float64) (z float64, anomalous bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, false
	}
	if e.n > 0 {
		// Floor sigma at a small fraction of the mean: a near-constant stream
		// (variance at float rounding noise) must not turn ppm-level jitter
		// into huge z-scores.
		sigma := math.Sqrt(e.vr)
		if floor := 1e-12 + 1e-6*math.Abs(e.mean); sigma < floor {
			sigma = floor
		}
		z = (x - e.mean) / sigma
	}
	anomalous = e.n >= e.Warmup && math.Abs(z) > e.Z
	// Standard EW mean/variance update (West 1979).
	if e.n == 0 {
		e.mean = x
	} else {
		d := x - e.mean
		incr := e.Lambda * d
		e.mean += incr
		e.vr = (1 - e.Lambda) * (e.vr + d*incr)
	}
	e.n++
	return z, anomalous
}

// CUSUM is a two-sided cumulative-sum change-point detector. A baseline
// mean/σ is frozen from the first Warmup samples; afterwards the
// standardised deviations accumulate into an upward and a downward sum
// (with slack K) and a change is declared when either crosses H. On
// detection the sums reset and the baseline re-learns from the post-change
// stream, so successive change-points (shift up at compromise, shift back
// down after rejuvenation) are each detected once.
type CUSUM struct {
	// K is the slack per sample in σ units (half the shift to detect).
	K float64
	// H is the decision threshold in σ units.
	H float64
	// Warmup is how many samples estimate the baseline.
	Warmup int

	n          int
	sum, sumsq float64
	mu, sigma  float64
	gPos, gNeg float64
}

// Observe feeds one sample and reports the larger of the two cumulative
// sums plus whether a change-point was declared at this sample.
func (c *CUSUM) Observe(x float64) (stat float64, change bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return math.Max(c.gPos, c.gNeg), false
	}
	if c.n < c.Warmup {
		c.n++
		c.sum += x
		c.sumsq += x * x
		if c.n == c.Warmup {
			c.mu = c.sum / float64(c.n)
			v := c.sumsq/float64(c.n) - c.mu*c.mu
			if v < 0 {
				v = 0
			}
			c.sigma = math.Sqrt(v)
			// Constant (or near-constant) baseline: floor sigma relative to
			// the mean so any real deviation registers without float noise
			// producing astronomically large statistics.
			if floor := 1e-9 + 1e-3*math.Abs(c.mu); c.sigma < floor {
				c.sigma = floor
			}
		}
		return 0, false
	}
	z := (x - c.mu) / c.sigma
	c.gPos = math.Max(0, c.gPos+z-c.K)
	c.gNeg = math.Max(0, c.gNeg-z-c.K)
	stat = math.Max(c.gPos, c.gNeg)
	if stat > c.H {
		// Reset and re-learn the baseline from the post-change regime.
		c.n, c.sum, c.sumsq = 0, 0, 0
		c.gPos, c.gNeg = 0, 0
		return stat, true
	}
	return stat, false
}

// Learning reports whether the detector is still estimating its baseline
// (initially, or re-learning after a detection). While learning it cannot
// flag changes, so its silence is not evidence of health.
func (c *CUSUM) Learning() bool { return c.n < c.Warmup }
