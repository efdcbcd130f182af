package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// gate is the bound of one end-to-end metric: relative (a share of the old
// median) for the metrics BENCHMARK.json lists and for compareOnlyBounds,
// absolute for the two share metrics that are expected to read 0.
type gate struct {
	bound    float64
	absolute bool
	higher   bool // higher is better
}

func gates(bf *benchmarkFile) map[string]gate {
	out := map[string]gate{}
	for _, m := range bf.EndToEnd {
		out[m.Name] = gate{bound: m.Bound, higher: m.Better == "higher"}
	}
	for name, b := range compareOnlyBounds {
		out[name] = gate{bound: b}
	}
	for name, b := range absoluteBounds {
		out[name] = gate{bound: b, absolute: true}
	}
	return out
}

// Verdicts of one (metric, workload) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judgePair applies one gate to the old and current summaries of a metric:
//
//   - unresolved when either side is missing, or when the spread between
//     either file's repeats (interquartile range, as a share of the median
//     for relative gates) is wider than the bound — unless the runs
//     themselves decide, which no noise explains: every new run better than
//     every old run is ok, every new run worse than every old run by more
//     than the bound is regressed;
//   - regressed when the new median is worse than the old by more than the
//     bound;
//   - ok otherwise.
//
// worse is how much worse the new median reads, in the gate's own terms.
func judgePair(g gate, old, cur *summary) (verdict string, worse float64) {
	if old == nil || cur == nil {
		return verdictUnresolved, math.NaN()
	}
	om, nm := float64(old.Median), float64(cur.Median)
	if math.IsNaN(om) || math.IsNaN(nm) {
		return verdictUnresolved, math.NaN()
	}
	scale := func(m float64) float64 {
		if g.absolute {
			return 1
		}
		return math.Abs(m)
	}
	worseBy := func(o, n float64) float64 {
		if g.higher {
			return (o - n) / scale(o)
		}
		return (n - o) / scale(o)
	}
	worse = worseBy(om, nm)
	spread := math.Max(float64(old.Q3-old.Q1)/scale(om), float64(cur.Q3-cur.Q1)/scale(nm))
	if spread > g.bound {
		switch {
		case everyPair(old.Runs, cur.Runs, func(o, n float64) bool { return worseBy(o, n) < 0 }):
			return verdictOK, worse
		case everyPair(old.Runs, cur.Runs, func(o, n float64) bool { return worseBy(o, n) > g.bound }):
			return verdictRegressed, worse
		}
		return verdictUnresolved, worse
	}
	if worse > g.bound {
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

// everyPair reports whether holds is true of every (old run, new run) pair.
func everyPair(old, cur []num, holds func(o, n float64) bool) bool {
	if len(old) == 0 || len(cur) == 0 {
		return false
	}
	for _, o := range old {
		for _, n := range cur {
			if !holds(float64(o), float64(n)) {
				return false
			}
		}
	}
	return true
}

// cmdCompare prints one row per (metric, workload) pair of two result files
// and exits non-zero only if some pair regressed.
func cmdCompare(args []string) int {
	fs := flag.NewFlagSet("mvbench compare", flag.ContinueOnError)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark declaration holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: mvbench compare [-bench BENCHMARK.json] old.json new.json")
		return 2
	}
	bf, err := readBenchmarkFile(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvbench compare:", err)
		return 2
	}
	old, err := readResult(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvbench compare:", err)
		return 2
	}
	cur, err := readResult(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvbench compare:", err)
		return 2
	}
	regressed := compareResults(os.Stdout, gates(bf), old, cur)
	if regressed > 0 {
		fmt.Printf("%d regressed\n", regressed)
		return 1
	}
	return 0
}

// compareResults writes the verdict table and returns how many pairs
// regressed. A workload either file flags invalid (generator lag, a host
// stall, oracle failures) measured something else than the program, so its
// rows are unresolved — except failed_share: failed ops are never excused.
func compareResults(w io.Writer, gs map[string]gate, old, cur *result) int {
	fmt.Fprintf(w, "%-16s %-16s %12s %12s %9s %8s  %s\n", "workload", "metric", "old", "new", "worse", "bound", "verdict")
	regressed := 0
	for _, name := range workloadNames() {
		ow, nw := old.workload(name), cur.workload(name)
		if ow == nil && nw == nil {
			continue
		}
		var invalid []string
		if ow != nil && !ow.Valid {
			invalid = append(invalid, "old: "+strings.Join(ow.Reasons, "; "))
		}
		if nw != nil && !nw.Valid {
			invalid = append(invalid, "new: "+strings.Join(nw.Reasons, "; "))
		}
		for _, def := range endToEndDefs {
			g, ok := gs[def.Name]
			if !ok {
				continue
			}
			var osum, ns *summary
			if ow != nil {
				osum = ow.EndToEnd[def.Name]
			}
			if nw != nil {
				ns = nw.EndToEnd[def.Name]
			}
			verdict, worse := judgePair(g, osum, ns)
			if len(invalid) > 0 && def.Name != mFailedShare {
				verdict = verdictUnresolved
			}
			if verdict == verdictRegressed {
				regressed++
			}
			format := func(s *summary) string {
				if s == nil {
					return "-"
				}
				return show(s.Median)
			}
			unit, pct := "%", 100.0
			if g.absolute {
				unit, pct = "", 1
			}
			fmt.Fprintf(w, "%-16s %-16s %12s %12s %+8.2f%s %7.3g%s  %s\n", name, def.Name,
				format(osum), format(ns), worse*pct, unit, g.bound*pct, unit, verdict)
		}
		for _, why := range invalid {
			fmt.Fprintf(w, "%-16s flagged invalid, %s\n", name, why)
		}
	}
	return regressed
}
