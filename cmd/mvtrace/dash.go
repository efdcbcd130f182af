package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"mvml/internal/cli"
	"mvml/internal/health"
	"mvml/internal/obs/tsdb"
)

// cmdDash renders a span export as a terminal dashboard or a machine-readable
// JSON report: request-rate sparklines, the top-K slowest stages with
// exemplar trace ids (jump straight into `mvtrace waterfall -trace N`), and
// the health/incident timeline. It replays the export through the tsdb
// ingester and the health engine.
func cmdDash(args []string, w, stderr io.Writer) error {
	fs, in := newFlagSet("dash", "", stderr)
	format := formatFlag(fs)
	topK := fs.Int("top", 8, "how many slow stages to list")
	width := fs.Int("width", 40, "sparkline width in characters (the time-bucket width follows from it)")
	requireExemplars := fs.Bool("require-exemplars", false,
		"exit non-zero unless slow stages carry exemplar trace ids covering every incident window (CI gate)")
	if err := parse(fs, args, format); err != nil {
		return err
	}
	if *in == "" {
		return cli.Usagef("dash: -in is required")
	}
	if *topK < 1 {
		return cli.Usagef("dash: -top must be at least 1")
	}
	if *width < 1 {
		return cli.Usagef("dash: -width must be at least 1")
	}
	dash, err := offline(*in, *topK, *width)
	if err != nil {
		return err
	}
	if *format == "json" {
		if err := writeJSON(w, dash); err != nil {
			return err
		}
	} else {
		render(w, dash)
	}
	if *requireExemplars {
		if err := checkExemplars(dash); err != nil {
			return fmt.Errorf("exemplar gate: %w", err)
		}
	}
	return nil
}

// StageRow is one slow stage: its latency digest plus the exemplar trace
// closest to the tail, ready for `mvtrace waterfall -trace N`.
type StageRow struct {
	Stage     string  `json:"stage"`
	Labels    string  `json:"labels,omitempty"`
	Count     float64 `json:"count"`
	P50       float64 `json:"p50_seconds"`
	P99       float64 `json:"p99_seconds"`
	Exemplar  uint64  `json:"exemplar_trace,omitempty"`
	ExemplarT float64 `json:"exemplar_t,omitempty"`
}

// Sparkline is one series rendered over time.
type Sparkline struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
	Max    float64   `json:"max"`
}

// TimelineEvent is one health or scaling transition.
type TimelineEvent struct {
	T      float64 `json:"t"`
	Kind   string  `json:"kind"` // transition | incident | rejuvenation
	Detail string  `json:"detail"`
}

// Dashboard is everything `mvtrace dash` knows, in both render paths.
type Dashboard struct {
	Source    string                  `json:"source"`
	Mode      string                  `json:"mode"` // always "offline"; pinned by the goldens
	Horizon   float64                 `json:"horizon_seconds"`
	Spans     int                     `json:"spans,omitempty"`
	Traces    int                     `json:"traces,omitempty"`
	Requests  float64                 `json:"requests"`
	Errors    float64                 `json:"errors"`
	Rates     []Sparkline             `json:"rates,omitempty"`
	SlowTop   []StageRow              `json:"slow_stages,omitempty"`
	Timeline  []TimelineEvent         `json:"timeline,omitempty"`
	Incidents []health.IncidentWindow `json:"incidents,omitempty"`
}

// offline replays a span export through the tsdb ingester and the health
// engine and derives the dashboard from the result.
func offline(path string, topK, width int) (*Dashboard, error) {
	recs, err := load(path)
	if err != nil {
		return nil, err
	}

	horizon := 0.0
	traces := map[uint64]struct{}{}
	for _, r := range recs {
		if r.End > horizon {
			horizon = r.End
		}
		traces[r.Trace] = struct{}{}
	}
	bs := bucketSeconds(horizon, width)
	store := tsdb.New(tsdb.Config{
		BucketSeconds: bs,
		Buckets:       int(horizon/bs) + 2,
	})
	tsdb.Replay(recs, tsdb.NewIngester(store, nil))
	hreport := health.Replay(recs, health.DefaultOptions())

	dash := &Dashboard{
		Source: path, Mode: "offline", Horizon: horizon,
		Spans: len(recs), Traces: len(traces),
		Requests:  store.FamilySumOver(tsdb.SeriesRequests, 0, horizon+1),
		Errors:    store.FamilySumOver(tsdb.SeriesErrors, 0, horizon+1),
		SlowTop:   slowStages(store, topK),
		Rates:     rateSparklines(store, horizon, bs, tsdb.SeriesRequests, tsdb.SeriesErrors),
		Incidents: hreport.Incidents,
	}
	dash.Timeline = healthTimeline(hreport)
	return dash, nil
}

// bucketSeconds is the time-bucket width: the smallest power-of-two multiple
// of one second that fits the horizon into width buckets, so the store holds
// about width buckets and a sparkline at most width cells, whatever the
// export's clock.
func bucketSeconds(horizon float64, width int) float64 {
	bs := 1.0
	for horizon/bs > float64(width) {
		bs *= 2
	}
	return bs
}

// slowStages ranks every stage-latency series by p99 and attaches the
// exemplar nearest that tail.
func slowStages(store *tsdb.Store, topK int) []StageRow {
	var rows []StageRow
	for _, sv := range store.Snapshot() {
		if sv.Name != tsdb.SeriesStage || sv.Count == 0 {
			continue
		}
		row := StageRow{Stage: sv.Name, Labels: sv.Labels,
			Count: float64(sv.Count), P50: sv.P50, P99: sv.P99}
		if e, ok := store.ExemplarNearLabels(sv.Name, sv.Labels, sv.P99); ok {
			row.Exemplar, row.ExemplarT = e.Trace, e.T
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].P99 != rows[j].P99 {
			return rows[i].P99 > rows[j].P99
		}
		return rows[i].Labels < rows[j].Labels
	})
	if len(rows) > topK {
		rows = rows[:topK]
	}
	return rows
}

// rateSparklines builds one sparkline per labelled series of the given
// families, one cell per time bucket.
func rateSparklines(store *tsdb.Store, horizon, bs float64, families ...string) []Sparkline {
	var out []Sparkline
	for _, fam := range families {
		for _, labels := range store.LabelSets(fam) {
			sp := Sparkline{Name: fam + "{" + labels + "}"}
			for t := 0.0; t < horizon; t += bs {
				v := store.SumOverLabels(fam, labels, t, t+bs-1e-9)
				sp.Values = append(sp.Values, v)
				sp.Max = max(sp.Max, v)
			}
			if sp.Max > 0 {
				out = append(out, sp)
			}
		}
	}
	return out
}

// healthTimeline compresses the health report into dashboard events.
func healthTimeline(r *health.Report) []TimelineEvent {
	var out []TimelineEvent
	for _, tr := range r.Timeline {
		out = append(out, TimelineEvent{T: tr.T, Kind: "transition",
			Detail: fmt.Sprintf("%s: %s → %s (%s)", tr.Component, tr.From, tr.To, tr.Reason)})
	}
	for _, rj := range r.Rejuvenations {
		out = append(out, TimelineEvent{T: rj.T, Kind: "rejuvenation",
			Detail: fmt.Sprintf("%s (%s)", rj.Version, rj.Kind)})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	const maxEvents = 64
	if len(out) > maxEvents {
		out = out[len(out)-maxEvents:]
	}
	return out
}

// checkExemplars is the CI gate: every incident window must be reachable
// from at least one slow-stage exemplar, so an on-call engineer can always
// jump from "something was wrong here" to a concrete trace.
func checkExemplars(d *Dashboard) error {
	var withEx []StageRow
	for _, row := range d.SlowTop {
		if row.Exemplar != 0 {
			withEx = append(withEx, row)
		}
	}
	if len(withEx) == 0 {
		return fmt.Errorf("no slow stage carries an exemplar trace id")
	}
	for _, w := range d.Incidents {
		covered := false
		for _, row := range withEx {
			if row.ExemplarT >= w.Start-1 && row.ExemplarT <= w.End+1 {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("incident window [%.2f, %.2f] has no exemplar trace", w.Start, w.End)
		}
	}
	return nil
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

func spark(vals []float64, max float64) string {
	if max <= 0 {
		max = 1
	}
	var b strings.Builder
	for _, v := range vals {
		i := int(v / max * float64(len(sparkRunes)-1))
		if i < 0 {
			i = 0
		}
		if i >= len(sparkRunes) {
			i = len(sparkRunes) - 1
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

func render(w io.Writer, d *Dashboard) {
	// The banner says "mvdash": dash stdout is pinned byte-for-byte (goldens,
	// CI diffs against earlier exports), so the title did not move with the code.
	fmt.Fprintf(w, "mvdash · %s · %s · horizon %s\n", d.Mode, d.Source, dur(d.Horizon))
	if d.Spans > 0 {
		fmt.Fprintf(w, "%d spans · %d traces · ", d.Spans, d.Traces)
	}
	errPct := 0.0
	if d.Requests > 0 {
		errPct = d.Errors / d.Requests * 100
	}
	fmt.Fprintf(w, "%.0f requests · %.0f errors (%.1f%%)\n\n", d.Requests, d.Errors, errPct)

	if len(d.Rates) > 0 {
		fmt.Fprintln(w, "rates (per bucket):")
		for _, sp := range d.Rates {
			fmt.Fprintf(w, "  %-48s %s max %.0f\n", sp.Name, spark(sp.Values, sp.Max), sp.Max)
		}
		fmt.Fprintln(w)
	}

	if len(d.SlowTop) > 0 {
		fmt.Fprintln(w, "slowest stages (by p99):")
		fmt.Fprintf(w, "  %-52s %10s %10s %8s %s\n", "stage", "p50", "p99", "count", "exemplar")
		for _, row := range d.SlowTop {
			name := row.Stage
			if row.Labels != "" {
				name += "{" + row.Labels + "}"
			}
			ex := "-"
			if row.Exemplar != 0 {
				ex = fmt.Sprintf("trace %d", row.Exemplar)
			}
			fmt.Fprintf(w, "  %-52s %10s %10s %8.0f %s\n",
				name, dur(row.P50), dur(row.P99), row.Count, ex)
		}
		fmt.Fprintln(w)
	}

	if len(d.Incidents) > 0 {
		fmt.Fprintln(w, "incidents:")
		for _, iw := range d.Incidents {
			state := "unresolved"
			if iw.Resolved {
				state = "resolved"
			}
			fmt.Fprintf(w, "  [%8.2fs – %8.2fs] peak %-9s %s\n", iw.Start, iw.End, iw.Peak, state)
		}
		fmt.Fprintln(w)
	}

	if len(d.Timeline) > 0 {
		fmt.Fprintln(w, "timeline:")
		for _, ev := range d.Timeline {
			fmt.Fprintf(w, "  %8.2fs %-13s %s\n", ev.T, ev.Kind, ev.Detail)
		}
	}
}
