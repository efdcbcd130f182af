package tsdb

import (
	"sync"

	"mvml/internal/obs"
)

// Rule is one recording rule: Expr is evaluated over the store at every
// evaluation boundary, and its value is recorded back into the store as a
// gauge series named Name, so rule outputs are themselves queryable and
// dashboard-visible. Judging them against objectives is the health engine's
// job (its burn-rate trackers), not the store's.
type Rule struct {
	Name string
	// Expr computes the rule's value at evaluation time t; ok=false (no
	// data) records nothing.
	Expr func(s *Store, t float64) (v float64, ok bool)
}

// Rules evaluates a fixed rule set over a store at a fixed cadence on the
// span clock: Advance(t) evaluates every elapsed boundary exactly once, so
// the recorded series from a live run and from a replay of the same spans
// are identical.
type Rules struct {
	store *Store
	every float64

	mu      sync.Mutex
	rules   []Rule
	lastIdx int64

	valueG []*obs.Gauge
}

// MetricRuleValue mirrors every rule's latest value into the registry.
const MetricRuleValue = "mv_tsdb_rule_value"

// NewRules returns a rule engine evaluating rules every `every` seconds
// (<= 0 selects 1s). A nil *Rules is a valid no-op handle.
func NewRules(store *Store, every float64, rules []Rule) *Rules {
	if every <= 0 {
		every = 1
	}
	return &Rules{store: store, every: every, rules: rules, lastIdx: -1,
		valueG: make([]*obs.Gauge, len(rules))}
}

// Register mirrors rule values into reg as mv_tsdb_rule_value{rule=...}
// gauges.
func (r *Rules) Register(reg *obs.Registry) {
	if r == nil || reg == nil {
		return
	}
	reg.Help(MetricRuleValue, "Latest recording-rule value by rule name.")
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, rule := range r.rules {
		r.valueG[i] = reg.Gauge(MetricRuleValue, "rule", rule.Name)
	}
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
// store).
func (r *Rules) evalLocked(te float64) {
	for i, rule := range r.rules {
		if v, ok := rule.Expr(r.store, te); ok {
			r.store.Set(rule.Name, te, v)
			r.valueG[i].Set(v)
		}
	}
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

// Recording rule names produced by DefaultServingRules.
const (
	RuleRequestRate = "mv_tsdb_request_rate"
	RuleErrorRatio  = "mv_tsdb_error_ratio"
	RuleP99Latency  = "mv_tsdb_p99_latency_seconds"
	RuleQueueDepth  = "mv_tsdb_queue_backlog"
)

// RuleWindowSeconds is the look-back window the serving rules evaluate over
// — matched to the health engine's long burn-rate window so the two layers
// look at the same horizon.
const RuleWindowSeconds = 30

// DefaultServingRules returns the standard recording rules: request rate,
// error ratio, p99 latency (the autoscaler's signal) and queue backlog.
func DefaultServingRules() []Rule {
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
		},
		{
			Name: RuleP99Latency,
			Expr: func(s *Store, t float64) (float64, bool) {
				return s.FamilyQuantileOver(SeriesStage, t-w, t, 0.99, "kind", "request")
			},
		},
		{
			Name: RuleQueueDepth,
			Expr: func(s *Store, t float64) (float64, bool) {
				return s.FamilyLastSum(SeriesQueue)
			},
		},
	}
}

// Report is the end-of-run JSON artifact: the full store snapshot
// (`mvtrace dash` renders the same structure).
type Report struct {
	BucketSeconds float64      `json:"bucket_seconds"`
	Series        []SeriesView `json:"series"`
}

// BuildReport snapshots the store.
func BuildReport(s *Store) *Report {
	if s == nil {
		return nil
	}
	return &Report{BucketSeconds: s.BucketSeconds(), Series: s.Snapshot()}
}
