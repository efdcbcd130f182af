package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"

	"mvml/internal/cli"
	"mvml/internal/health"
	"mvml/internal/obs/tsdb"
	"mvml/internal/stats"
)

// cmdDash renders the observability pipeline as a terminal dashboard or a
// machine-readable JSON report: request-rate sparklines, the top-K slowest
// stages with exemplar trace ids (jump straight into `mvtrace waterfall
// -trace N`), the health/incident timeline, and the recording-rule values
// evaluated over the same store the server runs.
//
// Two sources, one renderer: -in replays a span export offline through the
// identical tsdb ingester and rule set the live server runs; -metrics-addr
// polls a running server's /metrics instead.
func cmdDash(args []string, w, stderr io.Writer) error {
	fs, in := newFlagSet("dash", "", stderr)
	addr := fs.String("metrics-addr", "", "host:port of a /metrics endpoint to poll (live mode)")
	format := formatFlag(fs)
	topK := fs.Int("top", 8, "how many slow stages to list")
	width := fs.Int("width", 40, "sparkline width in characters")
	bucket := fs.Duration("bucket", time.Second, "time-series bucket width")
	poll := fs.Duration("poll", 2*time.Second, "live mode: scrape interval")
	duration := fs.Duration("duration", 10*time.Second, "live mode: how long to observe before rendering")
	requireExemplars := fs.Bool("require-exemplars", false,
		"exit non-zero unless slow stages carry exemplar trace ids covering every incident window (CI gate)")
	if err := parse(fs, args, format); err != nil {
		return err
	}
	if (*in == "") == (*addr == "") {
		return cli.Usagef("dash: exactly one of -in (offline) or -metrics-addr (live) is required")
	}

	var (
		dash *Dashboard
		err  error
	)
	if *in != "" {
		dash, err = offline(*in, *bucket, *topK, *width)
	} else {
		dash, err = live(*addr, *bucket, *poll, *duration, *topK, *width, stderr)
	}
	if err != nil {
		return err
	}
	if *format == "json" {
		if err := writeJSON(w, dash); err != nil {
			return err
		}
	} else {
		render(w, dash, *width)
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
	Mode      string                  `json:"mode"` // offline | live
	Horizon   float64                 `json:"horizon_seconds"`
	Spans     int                     `json:"spans,omitempty"`
	Traces    int                     `json:"traces,omitempty"`
	Requests  float64                 `json:"requests"`
	Errors    float64                 `json:"errors"`
	Rates     []Sparkline             `json:"rates,omitempty"`
	SlowTop   []StageRow              `json:"slow_stages,omitempty"`
	Timeline  []TimelineEvent         `json:"timeline,omitempty"`
	Incidents []health.IncidentWindow `json:"incidents,omitempty"`
	Rules     map[string]float64      `json:"rules,omitempty"`
}

// offline replays a span export through the same store + rules the server
// runs and derives the dashboard from the result.
func offline(path string, bucket time.Duration, topK, width int) (*Dashboard, error) {
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
	bs := bucket.Seconds()
	store := tsdb.New(tsdb.Config{
		BucketSeconds: bs,
		Buckets:       int(horizon/bs) + 2,
	})
	rules := tsdb.NewRules(store, bs, tsdb.DefaultServingRules())
	tsdb.Replay(recs, tsdb.NewIngester(store, rules))
	hreport := health.Replay(recs, health.DefaultOptions())

	dash := &Dashboard{
		Source: path, Mode: "offline", Horizon: horizon,
		Spans: len(recs), Traces: len(traces),
		Requests:  store.FamilySumOver(tsdb.SeriesRequests, 0, horizon+1),
		Errors:    store.FamilySumOver(tsdb.SeriesErrors, 0, horizon+1),
		SlowTop:   slowStages(store, horizon, topK),
		Rates:     rateSparklines(store, horizon, bs, width, tsdb.SeriesRequests, tsdb.SeriesErrors),
		Rules:     ruleValues(store, rules),
		Incidents: hreport.Incidents,
	}
	dash.Timeline = healthTimeline(hreport)
	return dash, nil
}

// live polls a /metrics endpoint into a store for `duration`, then renders
// what accumulated. No spans are involved, so no exemplars — the sparkline
// and rate view of a running server.
func live(addr string, bucket, poll, duration time.Duration, topK, width int, stderr io.Writer) (*Dashboard, error) {
	bs := bucket.Seconds()
	store := tsdb.New(tsdb.Config{
		BucketSeconds: bs,
		Buckets:       int(duration.Seconds()/bs) + 8,
	})
	sc := tsdb.NewScraper(store)
	url := "http://" + addr + "/metrics"
	start := time.Now()
	client := &http.Client{Timeout: poll}
	scrapes := 0
	for {
		elapsed := time.Since(start)
		if err := scrapeOnce(client, url, sc, elapsed.Seconds()); err != nil {
			if scrapes == 0 {
				return nil, err
			}
			fmt.Fprintln(stderr, "mvtrace: scrape:", err)
		} else {
			scrapes++
		}
		if elapsed >= duration {
			break
		}
		time.Sleep(poll)
	}
	if scrapes < 2 {
		return nil, fmt.Errorf("only %d scrape(s) of %s succeeded; need 2+ for rates", scrapes, url)
	}
	horizon := time.Since(start).Seconds()
	dash := &Dashboard{
		Source: url, Mode: "live", Horizon: horizon,
		SlowTop: scrapedQuantiles(store, horizon, topK),
	}
	// Sparkline every counter family that moved; gauges get their last value
	// reported as a single-point line.
	for _, name := range store.SeriesNames() {
		if !strings.HasSuffix(name, "_total") {
			continue
		}
		dash.Rates = append(dash.Rates, familySpark(store, name, horizon, bs, width))
		if strings.HasSuffix(name, "_requests_total") || name == "mv_gateway_routed_total" {
			dash.Requests += store.FamilySumOver(name, 0, horizon+1)
		}
		if strings.Contains(name, "error") || strings.Contains(name, "failed") {
			dash.Errors += store.FamilySumOver(name, 0, horizon+1)
		}
	}
	return dash, nil
}

func scrapeOnce(client *http.Client, url string, sc *tsdb.Scraper, t float64) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return sc.ScrapeText(resp.Body, t)
}

// slowStages ranks every stage-latency series by p99 and attaches the
// exemplar nearest that tail.
func slowStages(store *tsdb.Store, horizon float64, topK int) []StageRow {
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

// scrapedQuantiles reconstructs latency quantiles from scraped Prometheus
// histogram component series (name_bucket{le=...}), live mode's stand-in
// for span-derived stage latencies.
func scrapedQuantiles(store *tsdb.Store, horizon float64, topK int) []StageRow {
	type fam struct {
		les    []float64
		counts map[float64]float64
		labels string
	}
	fams := map[string]*fam{}
	for _, sv := range store.Snapshot() {
		// Only latency histograms — size/count histograms would render with
		// meaningless duration units.
		if !strings.HasSuffix(sv.Name, "_seconds_bucket") {
			continue
		}
		le, rest, ok := splitLE(sv.Labels)
		if !ok {
			continue
		}
		key := strings.TrimSuffix(sv.Name, "_bucket") + "|" + rest
		f := fams[key]
		if f == nil {
			f = &fam{counts: map[float64]float64{}, labels: rest}
			fams[key] = f
		}
		f.les = append(f.les, le)
		// Scraped _bucket series are rate-kind: their per-interval deltas
		// live in the points, not in a histogram Sum.
		total := 0.0
		for _, p := range sv.Points {
			total += p.V
		}
		f.counts[le] += total
	}
	var rows []StageRow
	for key, f := range fams {
		sort.Float64s(f.les)
		bounds := make([]float64, 0, len(f.les))
		counts := make([]uint64, 0, len(f.les))
		var prev float64
		total := 0.0
		for _, le := range f.les {
			cum := f.counts[le]
			d := cum - prev
			if d < 0 {
				d = 0
			}
			prev = cum
			if !math.IsInf(le, 1) {
				bounds = append(bounds, le)
			}
			counts = append(counts, uint64(d+0.5))
			total = cum
		}
		if total == 0 {
			continue
		}
		name := key[:strings.IndexByte(key, '|')]
		rows = append(rows, StageRow{
			Stage: name, Labels: f.labels, Count: total,
			P50: stats.BucketQuantile(bounds, counts, 0.50),
			P99: stats.BucketQuantile(bounds, counts, 0.99),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].P99 != rows[j].P99 {
			return rows[i].P99 > rows[j].P99
		}
		return rows[i].Stage+rows[i].Labels < rows[j].Stage+rows[j].Labels
	})
	if len(rows) > topK {
		rows = rows[:topK]
	}
	return rows
}

// splitLE strips the le="..." pair out of a canonical label string.
func splitLE(labels string) (le float64, rest string, ok bool) {
	var kept []string
	for _, part := range strings.Split(labels, ",") {
		if v, found := strings.CutPrefix(part, `le="`); found {
			v = strings.TrimSuffix(v, `"`)
			if v == "+Inf" {
				le, ok = math.Inf(1), true
			} else if _, err := fmt.Sscanf(v, "%g", &le); err == nil {
				ok = true
			}
			continue
		}
		kept = append(kept, part)
	}
	return le, strings.Join(kept, ","), ok
}

// rateSparklines builds one per-bucket sparkline per labelled series of the
// given families.
func rateSparklines(store *tsdb.Store, horizon, bs float64, width int, families ...string) []Sparkline {
	var out []Sparkline
	for _, fam := range families {
		for _, ls := range store.LabelSets(fam) {
			sp := seriesSpark(store, fam, ls, horizon, bs, width)
			if sp.Max > 0 {
				out = append(out, sp)
			}
		}
	}
	return out
}

func familySpark(store *tsdb.Store, fam string, horizon, bs float64, width int) Sparkline {
	sp := Sparkline{Name: fam}
	for _, ls := range store.LabelSets(fam) {
		s := seriesSpark(store, fam, ls, horizon, bs, width)
		if len(sp.Values) == 0 {
			sp.Values = make([]float64, len(s.Values))
		}
		for i := range s.Values {
			sp.Values[i] += s.Values[i]
			if sp.Values[i] > sp.Max {
				sp.Max = sp.Values[i]
			}
		}
	}
	return sp
}

func seriesSpark(store *tsdb.Store, fam, labels string, horizon, bs float64, width int) Sparkline {
	sp := Sparkline{Name: fam}
	if labels != "" {
		sp.Name = fam + "{" + labels + "}"
	}
	// One sparkline cell per `step` seconds so the whole horizon fits.
	step := bs
	for horizon/step > float64(width) {
		step *= 2
	}
	for t := 0.0; t < horizon; t += step {
		v := store.SumOverLabels(fam, labels, t, t+step-1e-9)
		sp.Values = append(sp.Values, v)
		if v > sp.Max {
			sp.Max = v
		}
	}
	return sp
}

func ruleValues(store *tsdb.Store, rules *tsdb.Rules) map[string]float64 {
	out := map[string]float64{}
	for _, name := range rules.RuleNames() {
		if v, ok := store.LastValue(name); ok {
			out[name] = v
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
// jump from "something was wrong here" to a concrete retained trace.
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

func render(w io.Writer, d *Dashboard, width int) {
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
