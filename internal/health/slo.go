package health

import "math"

// Objective is one service-level objective: a target fraction of good
// events over a rolling budget window, monitored through the standard
// multi-window burn-rate rule (alert only when both a short and a long
// window burn faster than BurnAlert, so a brief spike alone cannot page but
// a sustained burn is caught quickly).
type Objective struct {
	// Name labels the objective in gauges and reports ("availability", ...).
	Name string `json:"name"`
	// Target is the good-event fraction promised, e.g. 0.99.
	Target float64 `json:"target"`
	// Window is the error-budget window in seconds.
	Window float64 `json:"window_seconds"`
	// ShortWindow and LongWindow are the burn-rate windows in seconds.
	ShortWindow float64 `json:"short_window_seconds"`
	LongWindow  float64 `json:"long_window_seconds"`
	// BurnAlert is the burn-rate threshold both windows must exceed.
	BurnAlert float64 `json:"burn_alert"`
}

// sloBucket aggregates one bucket-width of events.
type sloBucket struct {
	start     float64 // bucket start time; -1 when empty
	good, bad uint64
}

// sloTracker maintains one objective's event stream in a fixed ring of
// time buckets, so budget and burn-rate queries are O(buckets) with no
// allocation, and the whole structure is deterministic in the observed
// (time, bad) sequence.
type sloTracker struct {
	obj  Objective
	ring []sloBucket // buckets of bucketSeconds each

	totalGood, totalBad uint64
	lastT               float64
	alerting            bool
	alerts              int // rising edges of the burn alert
}

func newSLOTracker(obj Objective) *sloTracker {
	n := int(math.Ceil(obj.Window/bucketSeconds)) + 1
	if n < 2 {
		n = 2
	}
	t := &sloTracker{obj: obj, ring: make([]sloBucket, n)}
	for i := range t.ring {
		t.ring[i].start = -1
	}
	return t
}

// record counts one event at time t (seconds on the span clock).
func (t *sloTracker) record(ts float64, bad bool) {
	if ts < 0 {
		ts = 0
	}
	if ts > t.lastT {
		t.lastT = ts
	}
	start := math.Floor(ts/bucketSeconds) * bucketSeconds
	b := &t.ring[int(ts/bucketSeconds)%len(t.ring)]
	if b.start != start {
		// Ring wrapped onto a stale bucket: evict it.
		b.start, b.good, b.bad = start, 0, 0
	}
	if bad {
		b.bad++
		t.totalBad++
	} else {
		b.good++
		t.totalGood++
	}
	// Re-evaluate the multi-window alert on every event; count rising edges.
	now := t.alertNow()
	if now && !t.alerting {
		t.alerts++
	}
	t.alerting = now
}

// window sums events in (now-window, now].
func (t *sloTracker) windowCounts(now, window float64) (good, bad uint64) {
	lo := now - window
	for _, b := range t.ring {
		if b.start < 0 || b.start+bucketSeconds <= lo || b.start > now {
			continue
		}
		good += b.good
		bad += b.bad
	}
	return good, bad
}

// BurnRate is the error rate over the window divided by the budget rate
// (1 - target): 1.0 means the budget is being consumed exactly at the
// sustainable pace, N means N× too fast. An empty window burns at 0.
func (t *sloTracker) burnRate(now, window float64) float64 {
	good, bad := t.windowCounts(now, window)
	total := good + bad
	if total == 0 {
		return 0
	}
	budget := 1 - t.obj.Target
	if budget <= 0 {
		budget = 1e-9
	}
	return (float64(bad) / float64(total)) / budget
}

// budgetRemaining is the unspent fraction of the error budget over the
// budget window: 1 when no errors, 0 when the budget is exactly spent,
// negative when overspent.
func (t *sloTracker) budgetRemaining(now float64) float64 {
	good, bad := t.windowCounts(now, t.obj.Window)
	total := good + bad
	if total == 0 {
		return 1
	}
	budget := 1 - t.obj.Target
	if budget <= 0 {
		budget = 1e-9
	}
	return 1 - (float64(bad)/float64(total))/budget
}

// alertNow applies the multi-window rule at the latest observed time.
func (t *sloTracker) alertNow() bool {
	return t.burnRate(t.lastT, t.obj.ShortWindow) > t.obj.BurnAlert &&
		t.burnRate(t.lastT, t.obj.LongWindow) > t.obj.BurnAlert
}

// SLOStatus is one objective's externally visible state.
type SLOStatus struct {
	Objective       Objective `json:"objective"`
	Good            uint64    `json:"good"`
	Bad             uint64    `json:"bad"`
	BudgetRemaining float64   `json:"budget_remaining"`
	BurnShort       float64   `json:"burn_short"`
	BurnLong        float64   `json:"burn_long"`
	Alerting        bool      `json:"alerting"`
	Alerts          int       `json:"alerts"`
}

func (t *sloTracker) status() SLOStatus {
	return SLOStatus{
		Objective:       t.obj,
		Good:            t.totalGood,
		Bad:             t.totalBad,
		BudgetRemaining: t.budgetRemaining(t.lastT),
		BurnShort:       t.burnRate(t.lastT, t.obj.ShortWindow),
		BurnLong:        t.burnRate(t.lastT, t.obj.LongWindow),
		Alerting:        t.alerting,
		Alerts:          t.alerts,
	}
}
