package core

import (
	"mvml/internal/obs"
)

// Metric names the core system registers. Collected here so exposition
// consumers and tests share one vocabulary.
const (
	// MetricVoterRounds counts voter rounds by outcome label
	// ("decision", "skip_divergence", "skip_no_modules").
	MetricVoterRounds = "mvml_voter_rounds_total"
	// MetricInferenceLatency is the per-module inference latency histogram
	// (seconds), labelled by module.
	MetricInferenceLatency = "mvml_inference_latency_seconds"
	// MetricVoteLatency is the voter's decision latency histogram.
	MetricVoteLatency = "mvml_vote_latency_seconds"
	// MetricModuleState is a per-module gauge holding the numeric state
	// code (1=H, 2=C, 3=N, 4=R).
	MetricModuleState = "mvml_module_state"
	// MetricModulesInState gauges how many modules currently sit in each
	// state, labelled by state ("H", "C", "N", "R").
	MetricModulesInState = "mvml_modules_in_state"
	// MetricTransitions counts module state transitions, labelled by
	// module, from and to.
	MetricTransitions = "mvml_module_transitions_total"
	// MetricRejuvenations counts rejuvenation starts, labelled by kind
	// ("reactive", "proactive") and module; proactive starts also carry the
	// selection policy.
	MetricRejuvenations = "mvml_rejuvenations_total"
	// MetricRejuvenationTriggers counts proactive trigger expiries.
	MetricRejuvenationTriggers = "mvml_rejuvenation_triggers_total"
)

// telemetry holds the pre-resolved metric handles and span sink for one
// System. All methods are nil-safe, so an uninstrumented System (tel == nil)
// pays a single pointer comparison on the hot path and performs no
// allocation — and, because telemetry only observes, it never consumes xrand
// draws: instrumented and uninstrumented runs are decision-identical.
type telemetry struct {
	reg   *obs.Registry
	spans *obs.SpanSink

	// trace groups every span this System emits; span times are simulated
	// seconds (the System's clock), not the sink's wall clock.
	trace uint64
	// stateSince tracks, per module, the simulated second it entered its
	// current state — closed into a "module_state" span on each transition.
	stateSince []float64
	// rejuvStart tracks, per module, when its in-progress rejuvenation
	// began (NaN-free: -1 when none is running).
	rejuvStart []float64

	// Hot-path handles, resolved once at Instrument time.
	decisions     *obs.Counter
	skipDiverge   *obs.Counter
	skipNoModules *obs.Counter
	moduleLatency []*obs.Histogram // indexed like System.modules
	voteLatency   *obs.Histogram

	// Per-module state gauges and per-state population gauges.
	stateGauge  []*obs.Gauge
	inState     [4]*obs.Gauge // indexed by ModuleState-1
	triggers    *obs.Counter
	moduleNames []string
}

// stateLabel is the exposition value for a module state.
func stateLabel(s ModuleState) string { return s.String() }

// newTelemetry resolves every handle the system needs from rt.
func newTelemetry(rt *obs.Runtime, moduleNames []string) *telemetry {
	reg := rt.Metrics()
	t := &telemetry{
		reg: reg, spans: rt.Spans(),
		trace:       rt.Spans().NewTraceID(),
		stateSince:  make([]float64, len(moduleNames)),
		rejuvStart:  make([]float64, len(moduleNames)),
		moduleNames: moduleNames,
	}
	for i := range t.rejuvStart {
		t.rejuvStart[i] = -1
	}
	reg.Help(MetricVoterRounds, "Voter rounds by outcome (decision, skip_divergence, skip_no_modules).")
	reg.Help(MetricInferenceLatency, "Wall-clock latency of one module inference, per version.")
	reg.Help(MetricVoteLatency, "Wall-clock latency of one voter decision.")
	reg.Help(MetricModuleState, "Current module state code: 1=H, 2=C, 3=N, 4=R.")
	reg.Help(MetricModulesInState, "Number of modules currently in each health state.")
	reg.Help(MetricTransitions, "Module health-state transitions.")
	reg.Help(MetricRejuvenations, "Rejuvenation starts by kind and module.")
	reg.Help(MetricRejuvenationTriggers, "Proactive rejuvenation trigger expiries.")
	t.decisions = reg.Counter(MetricVoterRounds, "outcome", "decision")
	t.skipDiverge = reg.Counter(MetricVoterRounds, "outcome", "skip_divergence")
	t.skipNoModules = reg.Counter(MetricVoterRounds, "outcome", "skip_no_modules")
	t.voteLatency = reg.Histogram(MetricVoteLatency, obs.LatencyBuckets())
	t.triggers = reg.Counter(MetricRejuvenationTriggers)
	for _, name := range moduleNames {
		t.moduleLatency = append(t.moduleLatency,
			reg.Histogram(MetricInferenceLatency, obs.LatencyBuckets(), "module", name))
		t.stateGauge = append(t.stateGauge, reg.Gauge(MetricModuleState, "module", name))
	}
	for st := Healthy; st <= Rejuvenating; st++ {
		t.inState[st-1] = reg.Gauge(MetricModulesInState, "state", stateLabel(st))
	}
	return t
}

// transition records one module state change: a labelled counter increment,
// the per-module state gauge, and the module_state span closing the interval
// spent in the previous state. kind annotates rejuvenation starts
// ("reactive"/"proactive"); policy names the proactive victim policy.
func (t *telemetry) transition(now float64, idx int, from, to ModuleState, kind, policy string) {
	if t == nil {
		return
	}
	name := t.moduleNames[idx]
	t.reg.Counter(MetricTransitions,
		"module", name, "from", stateLabel(from), "to", stateLabel(to)).Inc()
	t.stateGauge[idx].Set(float64(to))
	if kind != "" {
		if policy != "" {
			t.reg.Counter(MetricRejuvenations, "kind", kind, "module", name, "policy", policy).Inc()
		} else {
			t.reg.Counter(MetricRejuvenations, "kind", kind, "module", name).Inc()
		}
	}
	// Close the interval the module spent in its previous state; the
	// transition that ended it rides on the same span. Span times are
	// simulated seconds on the System's shared trace.
	attrs := map[string]any{"module": name, "state": stateLabel(from), "to": stateLabel(to)}
	if kind != "" {
		attrs["kind"] = kind
		if policy != "" {
			attrs["policy"] = policy
		}
	}
	t.spans.Emit(t.trace, 0, "module_state", t.stateSince[idx], now, attrs)
	t.stateSince[idx] = now
	if to == Rejuvenating {
		t.rejuvStart[idx] = now
	} else if from == Rejuvenating && t.rejuvStart[idx] >= 0 {
		t.spans.Emit(t.trace, 0, "rejuvenation", t.rejuvStart[idx], now,
			map[string]any{"module": name})
		t.rejuvStart[idx] = -1
	}
}

// trigger records a proactive rejuvenation trigger expiry.
func (t *telemetry) trigger(now float64) {
	if t == nil {
		return
	}
	t.triggers.Inc()
	t.spans.Emit(t.trace, 0, "rejuvenation_trigger", now, now, nil)
}

// syncPopulation refreshes the per-state population gauges.
func (t *telemetry) syncPopulation(counts [4]int) {
	if t == nil {
		return
	}
	for i, g := range t.inState {
		g.Set(float64(counts[i]))
	}
}

// voterOutcome records one voter round by outcome.
func (t *telemetry) voterOutcome(now float64, d *decisionOutcome) {
	if t == nil {
		return
	}
	switch {
	case !d.skipped:
		t.decisions.Inc()
	case d.proposals == 0:
		t.skipNoModules.Inc()
	default:
		t.skipDiverge.Inc()
	}
	// A skip with live proposals is a divergence (the health engine counts
	// these), one with none a plain voter_skip: a zero-length span marks the
	// voter round in simulated time either way.
	if d.skipped {
		attrs := map[string]any{"reason": d.reason, "proposals": d.proposals}
		if d.proposals > 0 {
			t.spans.Emit(t.trace, 0, "divergence", now, now, attrs)
		} else {
			t.spans.Emit(t.trace, 0, "voter_skip", now, now, attrs)
		}
	}
	// A decided round with dissent is a minority disagreement — not a skip,
	// so it gets its own span kind. The health engine's online α estimator
	// counts these per-module error events and their pairwise overlaps.
	if !d.skipped && len(d.dissenting) > 0 {
		t.spans.Emit(t.trace, 0, "disagreement", now, now,
			map[string]any{"diverged": d.dissenting, "proposals": d.proposals})
	}
}

// decisionOutcome is the telemetry-relevant slice of a Decision, extracted
// so telemetry stays non-generic.
type decisionOutcome struct {
	skipped    bool
	reason     string
	proposals  int
	dissenting []string
}

// InstrumentObs attaches an obs.Runtime to the system: metrics, the
// module_state / rejuvenation / divergence / disagreement spans and the
// voter_skip / rejuvenation_trigger instants (all in simulated seconds). A
// nil Runtime detaches telemetry. The instrumentation is purely
// observational — it draws nothing from the system's random stream — so it
// never changes the decision sequence. InstrumentObs is not safe to call
// concurrently with Infer/Advance.
func (s *System[I, O]) InstrumentObs(rt *obs.Runtime) {
	if rt == nil {
		s.tel = nil
		return
	}
	names := make([]string, len(s.modules))
	for i, m := range s.modules {
		names[i] = m.Name()
	}
	s.tel = newTelemetry(rt, names)
	for i, m := range s.modules {
		s.tel.stateGauge[i].Set(float64(m.state))
	}
	s.tel.syncPopulation(s.statePopulation())
}

// statePopulation counts modules per state, indexed by ModuleState-1.
func (s *System[I, O]) statePopulation() [4]int {
	var counts [4]int
	for _, m := range s.modules {
		counts[m.state-1]++
	}
	return counts
}
