package health

import "mvml/internal/obs"

// IncidentWindow is a contiguous interval during which the process-level
// verdict was worse than healthy.
type IncidentWindow struct {
	Start float64 `json:"start"`
	End   float64 `json:"end"` // equal to the replay horizon when unresolved
	Peak  Level   `json:"peak"`
	// Resolved marks windows that returned to healthy before the end of
	// the replay.
	Resolved bool `json:"resolved"`
}

// AlphaPoint is one sample of the online α trajectory.
type AlphaPoint struct {
	T      float64 `json:"t"`
	Rounds uint64  `json:"rounds"`
	Alpha  float64 `json:"alpha"`
}

// Report is the engine's accumulated judgment over a span stream — what
// `mvtrace health` renders, and what the live /healthz endpoint summarises.
type Report struct {
	Spans         uint64              `json:"spans"`
	RoundsDecided uint64              `json:"rounds_decided"`
	RoundsSkipped uint64              `json:"rounds_skipped"`
	Horizon       float64             `json:"horizon_seconds"`
	Final         *Verdict            `json:"final"`
	Timeline      []Transition        `json:"timeline,omitempty"`
	TimelineTrunc uint64              `json:"timeline_truncated,omitempty"`
	Incidents     []IncidentWindow    `json:"incidents,omitempty"`
	ChangePoints  []ChangePoint       `json:"change_points,omitempty"`
	Rejuvenations []RejuvenationEvent `json:"rejuvenations,omitempty"`
	AlphaFinal    float64             `json:"alpha_final"`
	AlphaKnown    bool                `json:"alpha_known"`
	AlphaPairs    []PairAlpha         `json:"alpha_pairs,omitempty"`
	AlphaTraj     []AlphaPoint        `json:"alpha_trajectory,omitempty"`
}

// Report snapshots the engine's accumulated judgment. Nil on a nil engine.
func (e *Engine) Report() *Report {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	r := &Report{
		Spans:         e.spansSeen,
		RoundsDecided: e.roundsDecided,
		RoundsSkipped: e.roundsSkipped,
		Horizon:       e.now,
		Timeline:      append([]Transition(nil), e.timeline...),
		TimelineTrunc: e.timelineTrunc,
		ChangePoints:  append([]ChangePoint(nil), e.changePoints...),
		Rejuvenations: append([]RejuvenationEvent(nil), e.rejuvenations...),
		AlphaPairs:    e.alpha.Pairs(),
		AlphaTraj:     append([]AlphaPoint(nil), e.alphaTraj...),
	}
	r.AlphaFinal, r.AlphaKnown = e.alpha.Alpha()
	r.Final = e.snapshotLocked()
	r.Incidents = incidentWindows(r.Timeline, e.now)
	return r
}

// incidentWindows folds the overall-component transitions into contiguous
// non-healthy intervals.
func incidentWindows(timeline []Transition, horizon float64) []IncidentWindow {
	var out []IncidentWindow
	var open *IncidentWindow
	for _, tr := range timeline {
		if tr.Component != "overall" {
			continue
		}
		switch {
		case tr.To > Healthy && open == nil:
			out = append(out, IncidentWindow{Start: tr.T, Peak: tr.To})
			open = &out[len(out)-1]
		case open != nil && tr.To > open.Peak:
			open.Peak = tr.To
		}
		if open != nil && tr.To == Healthy {
			open.End = tr.T
			open.Resolved = true
			open = nil
		}
	}
	if open != nil {
		open.End = horizon
	}
	return out
}

// Replay feeds an exported span stream through a fresh engine and returns
// its report. Records are fed in file order, the order the sink handed them
// to its live observers, so a replayed report is the live engine's report.
func Replay(recs []obs.SpanRecord, opts Options) *Report {
	e := NewEngine(opts, nil)
	e.trackAlphaTrajectory(64)
	// Feed in sink-sized batches purely to exercise the same batch path the
	// live sink uses; batch boundaries carry no state.
	const batch = 256
	for len(recs) > 0 {
		n := min(batch, len(recs))
		e.ObserveSpans(recs[:n], 0)
		recs = recs[n:]
	}
	return e.Report()
}

// trackAlphaTrajectory makes the engine sample the online α estimate every
// `every` decided rounds (the replay path's trajectory for reports; the
// live path reads the gauge instead).
func (e *Engine) trackAlphaTrajectory(every uint64) {
	if e == nil || every == 0 {
		return
	}
	e.mu.Lock()
	e.alphaEvery = every
	e.mu.Unlock()
}
