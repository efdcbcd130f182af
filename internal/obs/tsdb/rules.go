package tsdb

import (
	"sync"

	"mvml/internal/health"
	"mvml/internal/obs"
)

// Cmp orients an alert rule's threshold comparison.
type Cmp int

const (
	// CmpNone marks a recording-only rule (no alert).
	CmpNone Cmp = iota
	// CmpAbove fires when the expression exceeds the threshold.
	CmpAbove
	// CmpBelow fires when the expression falls below the threshold.
	CmpBelow
)

// Rule is one recording/alert rule: Expr is evaluated over the store at
// every evaluation boundary; the value is recorded back into the store as a
// gauge series named Name (so rule outputs are themselves queryable and
// dashboard-visible), and — when Cmp is not CmpNone — compared against
// Threshold, firing after the condition holds for ForSeconds.
type Rule struct {
	Name string
	// Expr computes the rule's value at evaluation time t; ok=false (no
	// data) records nothing and treats the alert condition as not met.
	Expr func(s *Store, t float64) (v float64, ok bool)

	Threshold  float64
	Cmp        Cmp
	ForSeconds float64
	// Critical escalates the fed health component to Critical instead of
	// Degraded.
	Critical bool
	// Reason annotates transitions pushed to alert sinks.
	Reason string
}

// AlertSink receives alert transitions. health.Engine implements it
// (ObserveAlert), as does the dashboard's alert log.
type AlertSink interface {
	ObserveAlert(name string, critical, firing bool, t float64, reason string)
}

// AlertStatus is one alert's current state, for snapshots.
type AlertStatus struct {
	Name      string  `json:"name"`
	Critical  bool    `json:"critical"`
	Firing    bool    `json:"firing"`
	Since     float64 `json:"since,omitempty"` // firing: time the condition began
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Reason    string  `json:"reason,omitempty"`
}

// alertState tracks one rule's pending/firing machinery.
type alertState struct {
	pendingSince float64 // condition-true start, -1 when not pending
	firing       bool
	lastValue    float64
	lastOK       bool
}

// Rules evaluates a fixed rule set over a store at a fixed cadence on the
// span clock: Advance(t) evaluates every elapsed boundary exactly once, so
// the rule/alert timeline from a live run and from a replay of the same
// spans is identical.
type Rules struct {
	store *Store
	every float64

	mu      sync.Mutex
	rules   []Rule
	state   []alertState
	lastIdx int64
	sinks   []AlertSink

	valueG  []*obs.Gauge
	firingG []*obs.Gauge
}

// Metric names for rule outputs mirrored into the registry.
const (
	MetricRuleValue   = "mv_tsdb_rule_value"
	MetricAlertFiring = "mv_tsdb_alert_firing"
)

// NewRules returns a rule engine evaluating rules every `every` seconds
// (<= 0 selects 1s). A nil *Rules is a valid no-op handle.
func NewRules(store *Store, every float64, rules []Rule) *Rules {
	if every <= 0 {
		every = 1
	}
	r := &Rules{store: store, every: every, rules: rules,
		state: make([]alertState, len(rules)), lastIdx: -1,
		valueG: make([]*obs.Gauge, len(rules)), firingG: make([]*obs.Gauge, len(rules))}
	for i := range r.state {
		r.state[i].pendingSince = -1
	}
	return r
}

// Register mirrors rule values and alert firing states into reg as
// mv_tsdb_rule_value{rule=...} / mv_tsdb_alert_firing{alert=...} gauges.
func (r *Rules) Register(reg *obs.Registry) {
	if r == nil || reg == nil {
		return
	}
	reg.Help(MetricRuleValue, "Latest recording-rule value by rule name.")
	reg.Help(MetricAlertFiring, "1 while the named alert is firing, else 0.")
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, rule := range r.rules {
		r.valueG[i] = reg.Gauge(MetricRuleValue, "rule", rule.Name)
		if rule.Cmp != CmpNone {
			r.firingG[i] = reg.Gauge(MetricAlertFiring, "alert", rule.Name)
			r.firingG[i].Set(0)
		}
	}
}

// AddSink subscribes sink to alert transitions (fire and resolve).
func (r *Rules) AddSink(sink AlertSink) {
	if r == nil || sink == nil {
		return
	}
	r.mu.Lock()
	r.sinks = append(r.sinks, sink)
	r.mu.Unlock()
}

// maxCatchUp bounds how many missed evaluation boundaries one Advance call
// replays (a pathological time jump skips ahead instead of spinning).
const maxCatchUp = 100000

// Advance evaluates every boundary in (last, t]. Monotonic: a stale t is a
// no-op, so concurrent publishers may race through here safely.
func (r *Rules) Advance(t float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := int64(t / r.every)
	if idx <= r.lastIdx {
		return
	}
	if r.lastIdx < idx-maxCatchUp {
		r.lastIdx = idx - maxCatchUp
	}
	for i := r.lastIdx + 1; i <= idx; i++ {
		r.evalLocked(float64(i) * r.every)
	}
	r.lastIdx = idx
}

// evalLocked evaluates every rule at boundary time te. Caller holds r.mu;
// Expr and store writes take the store's own lock (lock order rules →
// store), and sinks are invoked with r.mu held (sinks must not call back
// into Rules).
func (r *Rules) evalLocked(te float64) {
	for i := range r.rules {
		rule := &r.rules[i]
		st := &r.state[i]
		v, ok := rule.Expr(r.store, te)
		st.lastValue, st.lastOK = v, ok
		if ok {
			r.store.Set(rule.Name, te, v)
			r.valueG[i].Set(v)
		}
		if rule.Cmp == CmpNone {
			continue
		}
		cond := ok && (rule.Cmp == CmpAbove && v > rule.Threshold ||
			rule.Cmp == CmpBelow && v < rule.Threshold)
		switch {
		case cond && st.pendingSince < 0:
			st.pendingSince = te
		case !cond:
			st.pendingSince = -1
		}
		firing := st.pendingSince >= 0 && te-st.pendingSince >= rule.ForSeconds
		if firing != st.firing {
			st.firing = firing
			if r.firingG[i] != nil {
				if firing {
					r.firingG[i].Set(1)
				} else {
					r.firingG[i].Set(0)
				}
			}
			for _, sink := range r.sinks {
				sink.ObserveAlert(rule.Name, rule.Critical, firing, te, rule.Reason)
			}
		}
	}
}

// Alerts snapshots the current state of every alerting rule.
func (r *Rules) Alerts() []AlertStatus {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []AlertStatus
	for i, rule := range r.rules {
		if rule.Cmp == CmpNone {
			continue
		}
		st := r.state[i]
		a := AlertStatus{Name: rule.Name, Critical: rule.Critical, Firing: st.firing,
			Value: st.lastValue, Threshold: rule.Threshold, Reason: rule.Reason}
		if st.firing {
			a.Since = st.pendingSince
		}
		out = append(out, a)
	}
	return out
}

// RuleNames returns the configured rule names in order.
func (r *Rules) RuleNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.rules))
	for i, rule := range r.rules {
		out[i] = rule.Name
	}
	return out
}

// Recording/alert rule names produced by DefaultServingRules.
const (
	RuleRequestRate = "mv_tsdb_request_rate"
	RuleErrorRatio  = "mv_tsdb_error_ratio"
	RuleP99Latency  = "mv_tsdb_p99_latency_seconds"
	RuleLatencySLO  = "mv_tsdb_latency_slo_attainment"
	RuleQueueDepth  = "mv_tsdb_queue_backlog"

	AlertHighErrorRate = RuleErrorRatio
	AlertLatencyBurn   = RuleLatencySLO
)

// RuleWindowSeconds is the look-back window the serving rules evaluate over
// — matched to the health engine's long burn-rate window so the two layers
// judge the same horizon.
const RuleWindowSeconds = 30

// DefaultServingRules derives the standard rule set from the health
// engine's SLO thresholds, so tsdb alerts and health verdicts share one set
// of objectives: request rate and queue backlog (recording only), error
// ratio vs the availability target (critical alert), p99 latency (recording,
// the autoscaler's signal), and latency-SLO attainment vs the latency
// objective/target (warning alert).
func DefaultServingRules(opts health.Options) []Rule {
	d := health.DefaultOptions()
	latObj := opts.LatencyObjective
	if latObj <= 0 {
		latObj = d.LatencyObjective
	}
	objs := opts.Objectives
	if len(objs) == 0 {
		objs = health.DefaultObjectives()
	}
	target := func(name string, fallback float64) float64 {
		for _, o := range objs {
			if o.Name == name {
				return o.Target
			}
		}
		return fallback
	}
	availTarget := target("availability", 0.99)
	latTarget := target("latency", 0.95)
	const w = RuleWindowSeconds
	return []Rule{
		{
			Name: RuleRequestRate,
			Expr: func(s *Store, t float64) (float64, bool) {
				return s.FamilySumOver(SeriesRequests, t-w, t) / w, true
			},
		},
		{
			Name: RuleErrorRatio,
			Expr: func(s *Store, t float64) (float64, bool) {
				req := s.FamilySumOver(SeriesRequests, t-w, t)
				if req == 0 {
					return 0, false
				}
				return s.FamilySumOver(SeriesErrors, t-w, t) / req, true
			},
			Cmp:        CmpAbove,
			Threshold:  1 - availTarget,
			ForSeconds: 5,
			Critical:   true,
			Reason:     "windowed error ratio exceeds the availability error budget",
		},
		{
			Name: RuleP99Latency,
			Expr: func(s *Store, t float64) (float64, bool) {
				return s.FamilyQuantileOver(SeriesStage, t-w, t, 0.99, "kind", "request")
			},
		},
		{
			Name: RuleLatencySLO,
			Expr: func(s *Store, t float64) (float64, bool) {
				return s.FamilyFracBelow(SeriesStage, t-w, t, latObj, "kind", "request")
			},
			Cmp:        CmpBelow,
			Threshold:  latTarget,
			ForSeconds: 5,
			Reason:     "fraction of requests within the latency objective fell below target",
		},
		{
			Name: RuleQueueDepth,
			Expr: func(s *Store, t float64) (float64, bool) {
				return s.FamilyLastSum(SeriesQueue)
			},
		},
	}
}

// Report is the end-of-run JSON artifact: the full store snapshot plus the
// alert states (`mvtrace dash` renders the same structure).
type Report struct {
	BucketSeconds float64       `json:"bucket_seconds"`
	Series        []SeriesView  `json:"series"`
	Alerts        []AlertStatus `json:"alerts,omitempty"`
}

// BuildReport snapshots the store and rule engine.
func BuildReport(s *Store, r *Rules) *Report {
	if s == nil {
		return nil
	}
	return &Report{BucketSeconds: s.BucketSeconds(), Series: s.Snapshot(), Alerts: r.Alerts()}
}
