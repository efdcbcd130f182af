// Command mvtrace is the one offline tool over a span export (the -spans-out
// JSONL stream of the instrumented binaries). Every subcommand reads the same
// file through the same loader:
//
//	mvtrace summary   -in spans.jsonl            # p50/p95/p99 per span kind
//	mvtrace top       -in spans.jsonl -n 10      # slowest traces
//	mvtrace waterfall -in spans.jsonl            # richest trace, as a tree
//	mvtrace waterfall -in spans.jsonl -trace 42  # a specific trace id
//	mvtrace health    -in spans.jsonl            # replay through the health engine
//	mvtrace dash      -in spans.jsonl            # replay through the tsdb aggregator
//
// summary, top and waterfall reconstruct a request's path through admission →
// queue → batch → per-version forwards → vote → reply; health replays the
// export through the identical engine the live server runs, so it shows
// exactly what the server itself decided (the live == replay contract), and
// dash aggregates it into time series with exemplar trace ids. health
// -require-incident and dash -require-exemplars are the CI gates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"mvml/internal/cli"
	"mvml/internal/obs"
	"mvml/internal/stats"
)

const usageText = `usage:
  mvtrace summary   -in spans.jsonl             per-stage latency quantiles
  mvtrace top       -in spans.jsonl [-n K]      K slowest traces
  mvtrace waterfall -in spans.jsonl [-trace N]  text waterfall for one trace
  mvtrace health    -in spans.jsonl [-require-incident]
                                                health-engine replay: verdict timeline, SLO budgets, online alpha
  mvtrace dash      -in spans.jsonl [-require-exemplars]
                                                dashboard: rates, slow stages with exemplar traces, incidents
all but waterfall take -format text|json; run "mvtrace <subcommand> -h" for flags
`

var commands = map[string]cli.Command{
	"summary":   cmdSummary,
	"top":       cmdTop,
	"waterfall": cmdWaterfall,
	"health":    cmdHealth,
	"dash":      cmdDash,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches one invocation and returns its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	return cli.Run("mvtrace", usageText, commands, args, stdout, stderr)
}

// newFlagSet starts a subcommand's flag set with the shared -in flag.
func newFlagSet(name, inDefault string, stderr io.Writer) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("mvtrace "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs, fs.String("in", inDefault, "span JSONL export to analyse")
}

// formatFlag registers the shared -format flag.
func formatFlag(fs *flag.FlagSet) *string {
	return fs.String("format", "text", "output format: text or json")
}

// parse parses args and validates -format (nil for text-only subcommands).
func parse(fs *flag.FlagSet, args []string, format *string) error {
	if err := cli.Parse(fs, args, fs.Output()); err != nil {
		return err
	}
	if format != nil && *format != "text" && *format != "json" {
		return cli.Usagef("unknown -format %q (want text or json)", *format)
	}
	return nil
}

// load reads a -spans-out JSONL export.
func load(path string) ([]obs.SpanRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := obs.ReadSpans(f)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s holds no spans", path)
	}
	return recs, nil
}

// writeJSON renders v as indented JSON, the -format json encoding.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// dur renders seconds on the span clock with a unit fitting its magnitude.
func dur(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.3fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.1fµs", s*1e6)
	}
}

// kindSummary is one span kind's latency digest, the JSON unit of
// `mvtrace summary -format json` (consumed by CI without text parsing).
type kindSummary struct {
	Kind string `json:"kind"`
	// Shard is set when the export carries multi-shard (gateway) spans:
	// stages are then grouped per shard label, "-" for spans without one
	// (the gateway's own route/shed/scale spans).
	Shard string  `json:"shard,omitempty"`
	Count int     `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
	Max   float64 `json:"max_seconds"`
}

func cmdSummary(args []string, w, stderr io.Writer) error {
	fs, in := newFlagSet("summary", "spans.jsonl", stderr)
	format := formatFlag(fs)
	if err := parse(fs, args, format); err != nil {
		return err
	}
	recs, err := load(*in)
	if err != nil {
		return err
	}

	// A single-server export groups by span kind alone; when any span carries
	// a "shard" attribute (a gateway export over a shared sink) every stage is
	// grouped per shard, so per-shard latency asymmetry — a slow shard, or
	// one whose traffic failed over to its successors — stays visible in the
	// summary.
	type group struct{ kind, shard string }
	byShard := false
	for _, r := range recs {
		if _, ok := r.Attrs["shard"]; ok {
			byShard = true
			break
		}
	}
	byKind := map[group][]float64{}
	for _, r := range recs {
		g := group{kind: r.Kind}
		if byShard {
			g.shard = "-"
			if v, ok := r.Attrs["shard"]; ok {
				g.shard = fmt.Sprint(v)
			}
		}
		byKind[g] = append(byKind[g], r.Duration())
	}
	kinds := make([]group, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	// Widest stages first, so the table reads as a latency budget; equal
	// stages sort by kind then shard for stable output.
	sort.Slice(kinds, func(i, j int) bool {
		a, b := quantile(byKind[kinds[i]], 0.50), quantile(byKind[kinds[j]], 0.50)
		if a != b {
			return a > b
		}
		if kinds[i].kind != kinds[j].kind {
			return kinds[i].kind < kinds[j].kind
		}
		return kinds[i].shard < kinds[j].shard
	})

	traces := map[uint64]struct{}{}
	for _, r := range recs {
		traces[r.Trace] = struct{}{}
	}
	rows := make([]kindSummary, 0, len(kinds))
	for _, k := range kinds {
		d := byKind[k]
		sort.Float64s(d)
		rows = append(rows, kindSummary{
			Kind: k.kind, Shard: k.shard, Count: len(d),
			P50: quantile(d, 0.50), P95: quantile(d, 0.95),
			P99: quantile(d, 0.99), Max: d[len(d)-1],
		})
	}

	if *format == "json" {
		return writeJSON(w, struct {
			Spans  int           `json:"spans"`
			Traces int           `json:"traces"`
			Input  string        `json:"input"`
			Kinds  []kindSummary `json:"kinds"`
		}{len(recs), len(traces), *in, rows})
	}

	fmt.Fprintf(w, "%d spans · %d traces · %s\n", len(recs), len(traces), *in)
	fmt.Fprintln(w)
	// The shard column appears only for multi-shard exports.
	shardCol := func(string) string { return "" }
	if byShard {
		shardCol = func(shard string) string { return fmt.Sprintf(" %-10s", shard) }
	}
	fmt.Fprintf(w, "%-14s%s %8s %12s %12s %12s %12s\n", "kind", shardCol("shard"), "count", "p50", "p95", "p99", "max")
	for _, row := range rows {
		fmt.Fprintf(w, "%-14s%s %8d %12s %12s %12s %12s\n", row.Kind, shardCol(row.Shard), row.Count,
			dur(row.P50), dur(row.P95), dur(row.P99), dur(row.Max))
	}
	return nil
}

// traceTop is one row of `mvtrace top`: a trace ranked by root
// duration, with its slowest child stage called out.
type traceTop struct {
	Trace       uint64  `json:"trace"`
	Kind        string  `json:"kind"`
	Seconds     float64 `json:"seconds"`
	Spans       int     `json:"spans"`
	Slowest     string  `json:"slowest_stage,omitempty"`
	SlowestSecs float64 `json:"slowest_stage_seconds,omitempty"`
	Error       string  `json:"error,omitempty"`
	Shard       string  `json:"shard,omitempty"`
}

func cmdTop(args []string, w, stderr io.Writer) error {
	fs, in := newFlagSet("top", "spans.jsonl", stderr)
	n := fs.Int("n", 10, "how many traces to list")
	format := formatFlag(fs)
	if err := parse(fs, args, format); err != nil {
		return err
	}
	if *n < 1 {
		return cli.Usagef("top: -n must be at least 1")
	}
	recs, err := load(*in)
	if err != nil {
		return err
	}

	byTrace := map[uint64][]obs.SpanRecord{}
	for _, r := range recs {
		byTrace[r.Trace] = append(byTrace[r.Trace], r)
	}
	rows := make([]traceTop, 0, len(byTrace))
	for id, spans := range byTrace {
		ids := map[uint64]bool{}
		for _, r := range spans {
			ids[r.ID] = true
		}
		row := traceTop{Trace: id, Spans: len(spans)}
		for _, r := range spans {
			isRoot := r.Parent == 0 || !ids[r.Parent]
			if isRoot && r.Duration() >= row.Seconds {
				row.Seconds = r.Duration()
				row.Kind = r.Kind
				if v, ok := r.Attrs["shard"]; ok {
					row.Shard = fmt.Sprint(v)
				}
			}
			if !isRoot && r.Duration() > row.SlowestSecs {
				row.SlowestSecs = r.Duration()
				row.Slowest = r.Kind
			}
			if v, ok := r.Attrs["error"]; ok && row.Error == "" {
				row.Error = fmt.Sprint(v)
			}
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Seconds != rows[j].Seconds {
			return rows[i].Seconds > rows[j].Seconds
		}
		return rows[i].Trace < rows[j].Trace
	})
	if len(rows) > *n {
		rows = rows[:*n]
	}

	if *format == "json" {
		return writeJSON(w, struct {
			Traces int        `json:"traces"`
			Input  string     `json:"input"`
			Top    []traceTop `json:"top"`
		}{len(byTrace), *in, rows})
	}

	fmt.Fprintf(w, "top %d of %d traces · %s\n\n", len(rows), len(byTrace), *in)
	fmt.Fprintf(w, "%10s %-14s %12s %6s %-22s %s\n", "trace", "kind", "duration", "spans", "slowest stage", "error")
	for _, row := range rows {
		slow := "-"
		if row.Slowest != "" {
			slow = fmt.Sprintf("%s (%s)", row.Slowest, dur(row.SlowestSecs))
		}
		kind := row.Kind
		if row.Shard != "" {
			kind += "@" + row.Shard
		}
		fmt.Fprintf(w, "%10d %-14s %12s %6d %-22s %s\n",
			row.Trace, kind, dur(row.Seconds), row.Spans, slow, row.Error)
	}
	return nil
}

// quantile is the nearest-rank order statistic over a sorted (or about to be
// sorted) sample — exact, not estimated, since the full export is in memory.
func quantile(d []float64, q float64) float64 {
	if !sort.Float64sAreSorted(d) {
		sort.Float64s(d)
	}
	return stats.NearestRank(d, q)
}

func cmdWaterfall(args []string, w, stderr io.Writer) error {
	fs, in := newFlagSet("waterfall", "spans.jsonl", stderr)
	traceID := fs.Uint64("trace", 0, "trace id to render (default: the trace with the most spans)")
	width := fs.Int("width", 48, "bar width in characters")
	if err := parse(fs, args, nil); err != nil {
		return err
	}
	recs, err := load(*in)
	if err != nil {
		return err
	}

	if *traceID == 0 {
		counts := map[uint64]int{}
		for _, r := range recs {
			counts[r.Trace]++
		}
		best, bestN := uint64(0), 0
		for t, n := range counts {
			if n > bestN || (n == bestN && t < best) {
				best, bestN = t, n
			}
		}
		*traceID = best
	}
	var spans []obs.SpanRecord
	for _, r := range recs {
		if r.Trace == *traceID {
			spans = append(spans, r)
		}
	}
	if len(spans) == 0 {
		return fmt.Errorf("trace %d not found in %s", *traceID, *in)
	}

	// Index parent → children; roots are spans whose parent is absent.
	ids := map[uint64]bool{}
	for _, r := range spans {
		ids[r.ID] = true
	}
	children := map[uint64][]obs.SpanRecord{}
	var roots []obs.SpanRecord
	for _, r := range spans {
		if r.Parent != 0 && ids[r.Parent] {
			children[r.Parent] = append(children[r.Parent], r)
		} else {
			roots = append(roots, r)
		}
	}
	byStart := func(s []obs.SpanRecord) {
		sort.Slice(s, func(i, j int) bool {
			if s[i].Start != s[j].Start {
				return s[i].Start < s[j].Start
			}
			return s[i].ID < s[j].ID
		})
	}
	byStart(roots)
	for _, c := range children {
		byStart(c)
	}

	t0, t1 := spans[0].Start, spans[0].End
	for _, r := range spans {
		if r.Start < t0 {
			t0 = r.Start
		}
		if r.End > t1 {
			t1 = r.End
		}
	}
	total := t1 - t0
	if total <= 0 {
		total = 1
	}

	fmt.Fprintf(w, "trace %d · %d spans · %s\n\n", *traceID, len(spans), dur(t1-t0))
	var render func(r obs.SpanRecord, depth int)
	render = func(r obs.SpanRecord, depth int) {
		label := strings.Repeat("  ", depth) + r.Kind
		if v, ok := r.Attrs["version"]; ok {
			label += fmt.Sprintf("[%v]", v)
		}
		off := int(float64(*width) * (r.Start - t0) / total)
		bar := int(float64(*width) * r.Duration() / total)
		if bar < 1 {
			bar = 1
		}
		if off+bar > *width {
			bar = *width - off
			if bar < 1 {
				bar = 1
			}
		}
		fmt.Fprintf(w, "%-26s %s%s%s %s\n", label,
			strings.Repeat(" ", off), strings.Repeat("█", bar),
			strings.Repeat(" ", *width-off-bar), dur(r.Duration()))
		for _, c := range children[r.ID] {
			render(c, depth+1)
		}
	}
	for _, r := range roots {
		render(r, 0)
	}
	return nil
}
