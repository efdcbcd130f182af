package health

import (
	"fmt"
	"sort"
	"sync"

	"mvml/internal/obs"
)

// Level is a component's health verdict.
type Level int

const (
	Healthy Level = iota
	Degraded
	Critical
)

func (l Level) String() string {
	switch l {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Critical:
		return "critical"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the level as its name.
func (l Level) MarshalJSON() ([]byte, error) {
	return []byte(`"` + l.String() + `"`), nil
}

// UnmarshalJSON parses a level name, so verdicts and reports round-trip
// through JSON (the /healthz body, exported reports).
func (l *Level) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"healthy"`:
		*l = Healthy
	case `"degraded"`:
		*l = Degraded
	case `"critical"`:
		*l = Critical
	default:
		return fmt.Errorf("health: unknown level %s", b)
	}
	return nil
}

// The engine's parameters. They are constants, so the live engine and every
// replay of its export (mvtrace health, mvtrace dash, mvbench) judge with
// the same numbers.
const (
	// latencyObjective is the per-request latency threshold (seconds)
	// feeding the latency SLO: a slower answer spends latency budget.
	latencyObjective = 0.25
	// bucketSeconds is the SLO ring bucket width.
	bucketSeconds = 1
	// ewmaLambda, ewmaZ and warmup parameterise the per-stream EWMA
	// detectors (warmup also the queue-depth CUSUM's baseline).
	ewmaLambda = 0.05
	ewmaZ      = 6
	warmup     = 32
	// cusumK and cusumH parameterise the queue-depth change-point detector.
	cusumK = 0.5
	cusumH = 8
	// recoverAfter is how many consecutive clean observations step a
	// component's level down by one (hysteresis).
	recoverAfter = 16
	// maxTimeline bounds the recorded verdict-transition log.
	maxTimeline = 4096
)

// Options selects what an Engine watches. Start from DefaultOptions.
type Options struct {
	// ShardFilter, when non-empty, restricts the engine to spans carrying a
	// matching "shard" attribute. In a multi-shard deployment every shard's
	// engine rides the same shared span sink; the filter is what keeps each
	// engine's verdict about its own shard only. Empty observes everything
	// (the single-server and replay default).
	ShardFilter string

	// objectives overrides DefaultObjectives; only the package's tests set
	// it, to shorten the windows of a synthetic stream.
	objectives []Objective
}

// DefaultObjectives returns the standard serving objectives: availability
// (answered at all), quality (answered by a healthy majority) and latency
// (answered within the latency objective). The windows are short enough
// that a demo run exercises the budget machinery.
func DefaultObjectives() []Objective {
	return []Objective{
		{Name: "availability", Target: 0.99, Window: 120, ShortWindow: 5, LongWindow: 30, BurnAlert: 2},
		{Name: "quality", Target: 0.90, Window: 120, ShortWindow: 5, LongWindow: 30, BurnAlert: 2},
		{Name: "latency", Target: 0.95, Window: 120, ShortWindow: 5, LongWindow: 30, BurnAlert: 2},
	}
}

// DefaultOptions returns the options every engine runs with: all shards,
// the default objectives.
func DefaultOptions() Options { return Options{} }

// component is one tracked health dimension's state-machine cell.
type component struct {
	level       Level
	cleanStreak int
	anomalies   uint64
	lastChange  float64
	lastReason  string
	gauge       *obs.Gauge
}

// Transition is one verdict change in the engine's timeline.
type Transition struct {
	T         float64 `json:"t"`
	Component string  `json:"component"`
	From      Level   `json:"from"`
	To        Level   `json:"to"`
	Reason    string  `json:"reason"`
}

// ChangePoint is one CUSUM detection.
type ChangePoint struct {
	T      float64 `json:"t"`
	Stream string  `json:"stream"`
	Stat   float64 `json:"stat"`
}

// RejuvenationEvent is one observed rejuvenation span.
type RejuvenationEvent struct {
	T       float64 `json:"t"`
	Version string  `json:"version"`
	Kind    string  `json:"kind"`
}

// Engine is the streaming health engine. It implements obs.SpanObserver:
// attach it to a span sink (live) or feed it records directly (replay) —
// both paths run the identical code, and all state advances on span
// timestamps only, so a replay reproduces the live verdicts exactly.
//
// A nil *Engine is a valid no-op handle.
type Engine struct {
	opts Options

	mu    sync.Mutex
	now   float64 // latest observed span end time
	comps map[string]*component
	order []string // component registration order for stable iteration

	latency *EWMA
	stages  map[string]*EWMA
	queue   *CUSUM

	slos  []*sloTracker
	alpha *AlphaEstimator

	timeline      []Transition
	timelineTrunc uint64
	changePoints  []ChangePoint
	rejuvenations []RejuvenationEvent
	spansSeen     uint64
	roundsDecided uint64
	roundsSkipped uint64
	alphaEvery    uint64 // sample the α trajectory every N decided rounds
	alphaTraj     []AlphaPoint

	reg        *obs.Registry
	alphaGauge *obs.Gauge
	sloGauges  map[string][3]*obs.Gauge // name → budget, burn short, burn long

	// subs receive verdict transitions; pending buffers transitions recorded
	// while e.mu is held so subscribers are always invoked outside the lock
	// (they may call back into Snapshot or Report).
	subs    []func(Transition)
	pending []Transition
}

// NewEngine builds an engine publishing mv_health_* gauges into reg (nil
// reg keeps the engine fully functional with no-op gauges).
func NewEngine(opts Options, reg *obs.Registry) *Engine {
	objectives := opts.objectives
	if objectives == nil {
		objectives = DefaultObjectives()
	}
	e := &Engine{
		opts:    opts,
		comps:   map[string]*component{},
		latency: &EWMA{Lambda: ewmaLambda, Z: ewmaZ, Warmup: warmup},
		stages:  map[string]*EWMA{},
		queue:   &CUSUM{K: cusumK, H: cusumH, Warmup: warmup},
		alpha:   NewAlphaEstimator(),
		reg:     reg,
	}
	reg.Help("mv_health_state", "Component health verdict: 0 healthy, 1 degraded, 2 critical.")
	reg.Help("mv_health_alpha", "Online error-dependency estimate over the voter disagreement stream.")
	reg.Help("mv_health_budget_remaining", "Unspent fraction of the SLO error budget (1 = untouched, <0 = overspent).")
	reg.Help("mv_health_burn_rate", "SLO budget burn rate over the labelled window (1 = sustainable pace).")
	reg.Help("mv_health_anomalies_total", "Anomalous observations flagged per component.")
	e.alphaGauge = reg.Gauge("mv_health_alpha")
	e.sloGauges = map[string][3]*obs.Gauge{}
	for _, obj := range objectives {
		e.slos = append(e.slos, newSLOTracker(obj))
		e.sloGauges[obj.Name] = [3]*obs.Gauge{
			reg.Gauge("mv_health_budget_remaining", "slo", obj.Name),
			reg.Gauge("mv_health_burn_rate", "slo", obj.Name, "window", "short"),
			reg.Gauge("mv_health_burn_rate", "slo", obj.Name, "window", "long"),
		}
	}
	// Pre-register the process rollup so /metrics always exposes it.
	e.comp("overall")
	return e
}

// comp resolves (lazily creating) one component cell. Caller holds e.mu
// (or the engine is still being constructed).
func (e *Engine) comp(name string) *component {
	c := e.comps[name]
	if c == nil {
		c = &component{gauge: e.reg.Gauge("mv_health_state", "component", name)}
		e.comps[name] = c
		e.order = append(e.order, name)
		c.gauge.Set(0)
	}
	return c
}

// bump raises name's level to at least lvl, recording the transition.
// Caller holds e.mu.
func (e *Engine) bump(name string, lvl Level, t float64, reason string) {
	c := e.comp(name)
	c.cleanStreak = 0
	c.anomalies++
	if e.reg != nil {
		e.reg.Counter("mv_health_anomalies_total", "component", name).Inc()
	}
	if lvl <= c.level {
		return
	}
	e.transition(name, c, lvl, t, reason)
}

// clean records one unremarkable observation for name; enough of them in a
// row step the level down (hysteresis). Caller holds e.mu.
func (e *Engine) clean(name string, t float64) {
	c := e.comps[name]
	if c == nil || c.level == Healthy {
		return
	}
	c.cleanStreak++
	if c.cleanStreak >= recoverAfter {
		c.cleanStreak = 0
		e.transition(name, c, c.level-1, t, "recovered")
	}
}

// force sets name's level outright (rejuvenation reset). Caller holds e.mu.
func (e *Engine) force(name string, lvl Level, t float64, reason string) {
	c := e.comp(name)
	c.cleanStreak = 0
	if c.level == lvl {
		return
	}
	e.transition(name, c, lvl, t, reason)
}

func (e *Engine) transition(name string, c *component, to Level, t float64, reason string) {
	from := c.level
	c.level = to
	c.lastChange = t
	c.lastReason = reason
	c.gauge.Set(float64(to))
	e.record(Transition{T: t, Component: name, From: from, To: to, Reason: reason})
	e.rollup(t)
}

// rollup recomputes the process-level verdict (max over components).
// Caller holds e.mu.
func (e *Engine) rollup(t float64) {
	worst := Healthy
	var why string
	for _, name := range e.order {
		if name == "overall" {
			continue
		}
		if c := e.comps[name]; c.level > worst {
			worst = c.level
			why = name
		}
	}
	o := e.comps["overall"]
	if o.level == worst {
		return
	}
	from := o.level
	o.level = worst
	o.lastChange = t
	o.lastReason = why
	o.gauge.Set(float64(worst))
	e.record(Transition{T: t, Component: "overall", From: from, To: worst, Reason: why})
}

func (e *Engine) record(tr Transition) {
	if len(e.subs) > 0 {
		e.pending = append(e.pending, tr)
	}
	if len(e.timeline) >= maxTimeline {
		e.timelineTrunc++
		return
	}
	e.timeline = append(e.timeline, tr)
}

// Subscribe registers fn to receive every subsequent verdict transition
// (component level changes, including the "overall" rollup). Callbacks run
// synchronously on the span-publishing goroutine but always outside the
// engine's lock, so a subscriber may call Snapshot or Report; it must not
// block. A nil engine ignores the call.
func (e *Engine) Subscribe(fn func(Transition)) {
	if e == nil || fn == nil {
		return
	}
	e.mu.Lock()
	e.subs = append(e.subs, fn)
	e.mu.Unlock()
}

// ObserveSpans implements obs.SpanObserver: the engine's single ingestion
// path, shared by live serving and offline replay. The sink's now is
// ignored — all detector state advances on span timestamps, which is what
// makes replay deterministic.
func (e *Engine) ObserveSpans(recs []obs.SpanRecord, _ float64) {
	if e == nil || len(recs) == 0 {
		return
	}
	e.mu.Lock()
	for i := range recs {
		if e.opts.ShardFilter != "" && recs[i].AttrString("shard") != e.opts.ShardFilter {
			continue
		}
		e.observeOne(&recs[i])
	}
	// Publish the continuous gauges once per batch.
	if a, ok := e.alpha.Alpha(); ok {
		e.alphaGauge.Set(a)
	}
	for _, t := range e.slos {
		g := e.sloGauges[t.obj.Name]
		g[0].Set(t.budgetRemaining(e.now))
		g[1].Set(t.burnRate(e.now, t.obj.ShortWindow))
		g[2].Set(t.burnRate(e.now, t.obj.LongWindow))
	}
	// Hand pending transitions to subscribers outside the lock; subs is
	// append-only, so the slice snapshot stays valid after unlock.
	fired := e.pending
	e.pending = nil
	subs := e.subs
	e.mu.Unlock()
	for _, tr := range fired {
		for _, fn := range subs {
			fn(tr)
		}
	}
}

// observeOne dispatches one span record into the detectors. Caller holds
// e.mu.
func (e *Engine) observeOne(rec *obs.SpanRecord) {
	e.spansSeen++
	t := rec.End
	if t > e.now {
		e.now = t
	}
	switch rec.Kind {
	case "request":
		e.observeRequest(rec, t)
	case "queue_wait", "forward", "vote", "batch":
		e.observeStage(rec, t)
		if rec.Kind == "vote" {
			e.observeVote(rec, t)
		}
		if rec.Kind == "batch" {
			if depth, ok := rec.AttrFloat("queue_depth"); ok {
				e.observeQueueDepth(depth, t)
			}
		}
	case "rejuvenation_trigger":
		// The serving pool decided this version is diverging. A replayed
		// file from outside the program may carry the kind without a
		// version: nothing to mark.
		if version := rec.AttrString("version"); version != "" {
			rate, _ := rec.AttrFloat("rate")
			e.bump("version:"+version, Critical, t, fmt.Sprintf("divergence rate %.2f over window", rate))
		}
	case "rejuvenation":
		e.observeRejuvenation(rec, t)
	}
}

func (e *Engine) observeRequest(rec *obs.SpanRecord, t float64) {
	d := rec.Duration()
	errAttr := rec.Attrs["error"] != nil
	degraded := rec.AttrBool("degraded")
	for _, tr := range e.slos {
		var bad bool
		switch tr.obj.Name {
		case "availability":
			bad = errAttr
		case "quality":
			bad = errAttr || degraded
		case "latency":
			bad = !errAttr && d > latencyObjective
		default:
			bad = errAttr
		}
		tr.record(t, bad)
		if tr.alerting {
			e.bump("slo:"+tr.obj.Name, Critical, t,
				fmt.Sprintf("burn rate over %.3g on both windows", tr.obj.BurnAlert))
		} else {
			e.clean("slo:"+tr.obj.Name, t)
		}
	}
	if errAttr {
		return // latency of a failed admission is not a latency sample
	}
	if z, anom := e.latency.Observe(d); anom {
		e.bump("latency", Degraded, t, fmt.Sprintf("e2e latency z=%.1f", z))
	} else {
		e.clean("latency", t)
	}
}

func (e *Engine) observeStage(rec *obs.SpanRecord, t float64) {
	det := e.stages[rec.Kind]
	if det == nil {
		det = &EWMA{Lambda: ewmaLambda, Z: ewmaZ, Warmup: warmup}
		e.stages[rec.Kind] = det
	}
	if z, anom := det.Observe(rec.Duration()); anom {
		e.bump("stage:"+rec.Kind, Degraded, t, fmt.Sprintf("stage latency z=%.1f", z))
	} else {
		e.clean("stage:"+rec.Kind, t)
	}
}

func (e *Engine) observeQueueDepth(depth, t float64) {
	stat, change := e.queue.Observe(depth)
	if change {
		e.changePoints = append(e.changePoints, ChangePoint{T: t, Stream: "queue_depth", Stat: stat})
		// First change-point degrades; a repeat before the component recovers
		// (the CUSUM relearns its baseline after each detection, so a repeat
		// means the shift is sustained) escalates to critical.
		lvl := Degraded
		if c := e.comps["queue"]; c != nil && c.level >= Degraded {
			lvl = Critical
		}
		e.bump("queue", lvl, t, fmt.Sprintf("queue depth change-point (CUSUM %.1f)", stat))
	} else if !e.queue.Learning() {
		// While the CUSUM re-learns its baseline it cannot flag anything, so
		// those observations are not evidence of recovery.
		e.clean("queue", t)
	}
}

// observeVote consumes one voting round: the diverged attribute lists the
// versions that disagreed with the voted output (absent for clean rounds).
func (e *Engine) observeVote(rec *obs.SpanRecord, t float64) {
	if rec.AttrBool("skipped") {
		e.roundsSkipped++
		e.bump("voter", Degraded, t, "voter skipped: no majority")
		// A skipped round is a coincident failure: every participating
		// version was in a minority, which is exactly the simultaneous-error
		// event Eq. 8's intersection counts (under majority voting a decided
		// round can have at most one dissenter, so only skips produce
		// simultaneous disagreements).
		e.alpha.ObserveRound(rec.AttrStrings("voters"))
		return
	}
	e.roundsDecided++
	e.clean("voter", t)
	diverged := rec.AttrStrings("diverged")
	e.alpha.ObserveRound(diverged)
	if e.alphaEvery > 0 && e.roundsDecided%e.alphaEvery == 0 {
		if a, ok := e.alpha.Alpha(); ok {
			e.alphaTraj = append(e.alphaTraj, AlphaPoint{T: t, Rounds: e.roundsDecided, Alpha: a})
		}
	}
	// Register every voter's component; its level moves only on the
	// serving pool's decisions (rejuvenation_trigger, rejuvenation).
	for _, name := range rec.AttrStrings("voters") {
		e.comp("version:" + name)
	}
}

func (e *Engine) observeRejuvenation(rec *obs.SpanRecord, t float64) {
	version := rec.AttrString("version")
	kind := rec.AttrString("kind")
	e.rejuvenations = append(e.rejuvenations, RejuvenationEvent{T: t, Version: version, Kind: kind})
	if _, ok := e.comps["version:"+version]; ok {
		e.force("version:"+version, Healthy, t, "rejuvenated ("+kind+")")
	}
}

// ComponentStatus is one component's externally visible state.
type ComponentStatus struct {
	Name       string  `json:"name"`
	Level      Level   `json:"level"`
	Anomalies  uint64  `json:"anomalies"`
	LastChange float64 `json:"last_change,omitempty"`
	LastReason string  `json:"last_reason,omitempty"`
}

// Verdict is a point-in-time snapshot of the engine's health state.
type Verdict struct {
	Overall    Level             `json:"overall"`
	Components []ComponentStatus `json:"components"`
	SLOs       []SLOStatus       `json:"slos"`
	Alpha      float64           `json:"alpha"`
	AlphaKnown bool              `json:"alpha_known"`
	Rounds     uint64            `json:"rounds"`
	Spans      uint64            `json:"spans"`
}

// Snapshot returns the current verdict; components are sorted by name for
// deterministic output. Nil on a nil engine.
func (e *Engine) Snapshot() *Verdict {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapshotLocked()
}

// snapshotLocked builds the verdict; caller holds e.mu.
func (e *Engine) snapshotLocked() *Verdict {
	v := &Verdict{
		Overall: e.comps["overall"].level,
		Rounds:  e.roundsDecided,
		Spans:   e.spansSeen,
	}
	v.Alpha, v.AlphaKnown = e.alpha.Alpha()
	names := append([]string(nil), e.order...)
	sort.Strings(names)
	for _, name := range names {
		c := e.comps[name]
		v.Components = append(v.Components, ComponentStatus{
			Name: name, Level: c.level, Anomalies: c.anomalies,
			LastChange: c.lastChange, LastReason: c.lastReason,
		})
	}
	for _, t := range e.slos {
		v.SLOs = append(v.SLOs, t.status())
	}
	return v
}
