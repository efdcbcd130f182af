package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

const schemaVersion = "mvbench/1"

// num is a float64 that JSON-encodes NaN and ±Inf as null: a metric that
// could not be measured (too few samples beyond a percentile, a layer the
// workload does not exercise) is absent, not zero.
type num float64

func (n num) MarshalJSON() ([]byte, error) {
	f := float64(n)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, f, 'g', -1, 64), nil
}

func (n *num) UnmarshalJSON(b []byte) error {
	if bytes.Equal(b, []byte("null")) {
		*n = num(math.NaN())
		return nil
	}
	f, err := strconv.ParseFloat(string(b), 64)
	*n = num(f)
	return err
}

// result is the file -out writes and compare reads.
type result struct {
	Schema     string            `json:"schema"`
	Machine    machine           `json:"machine"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Repeat     int               `json:"repeat"`
	Setup      sharedSetup       `json:"shared_setup"`
	TotalWallS num               `json:"total_wall_s"`
	Valid      bool              `json:"valid"`
	Reasons    []string          `json:"invalid_reasons,omitempty"`
	Workloads  []*workloadResult `json:"workloads"`
}

type sharedSetup struct {
	GenerateS num `json:"generate_s"`
	TrainS    num `json:"train_s"`
	OracleS   num `json:"oracle_s"`
}

type workloadResult struct {
	Name    string `json:"name"`
	Why     string `json:"why"`
	WallS   num    `json:"wall_s"`
	Valid   bool   `json:"valid"`
	Correct bool   `json:"correct"` // false when an oracle or end-state check failed
	// Reasons lists why the run is invalid: oracle failures, generator lag,
	// missing rejuvenations, percentiles without enough samples.
	Reasons []string `json:"invalid_reasons,omitempty"`
	// Discarded counts the phases run again because the host disturbed them;
	// Notes says why each was.
	Discarded int                      `json:"discarded_runs,omitempty"`
	EndToEnd  map[string]*summary      `json:"end_to_end"`
	PerLayer  map[string]perLayerValue `json:"per_layer"`
	Counts    phaseCounts              `json:"counts"`
	Notes     []string                 `json:"notes,omitempty"`
}

// phaseCounts keeps the generator's tallies of each kind of run apart.
type phaseCounts struct {
	Measured  []counts `json:"measured,omitempty"` // one per repeat
	Reference *counts  `json:"reference,omitempty"`
	Traced    *counts  `json:"traced,omitempty"`
}

type perLayerValue struct {
	Value num    `json:"value"`
	Unit  string `json:"unit"`
}

// summary is one end-to-end metric over the repeats of the measured phase.
type summary struct {
	Unit   string `json:"unit"`
	Median num    `json:"median"`
	Q1     num    `json:"q1"`
	Q3     num    `json:"q3"`
	Runs   []num  `json:"runs"`
}

// summarise reduces the repeats of one metric. A run that could not measure
// the metric (NaN) makes the median NaN rather than silently narrowing the
// sample.
func summarise(unit string, runs []float64) *summary {
	s := &summary{Unit: unit}
	for _, r := range runs {
		s.Runs = append(s.Runs, num(r))
	}
	q1, med, q3 := quartiles(runs)
	s.Q1, s.Median, s.Q3 = num(q1), num(med), num(q3)
	return s
}

// quartiles returns the three quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// that spreads computed here and by the benchmark driver agree. One value is
// its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	nan := math.NaN()
	if len(xs) == 0 {
		return nan, nan, nan
	}
	for _, x := range xs {
		if math.IsNaN(x) {
			return nan, nan, nan
		}
	}
	if len(xs) == 1 {
		return xs[0], xs[0], xs[0]
	}
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	n := len(data)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func (r *result) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, schemaVersion)
	}
	return &r, nil
}

func (r *result) workload(name string) *workloadResult {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// show renders a value, or "null" with the reason every null shares.
func show(n num) string {
	if math.IsNaN(float64(n)) {
		return "null"
	}
	return strconv.FormatFloat(float64(n), 'g', 6, 64)
}

// print writes the workload's metrics by name with their units.
func (wr *workloadResult) print() {
	fmt.Printf("\n== %s (%.1fs wall, valid %v) ==\n", wr.Name, float64(wr.WallS), wr.Valid)
	for _, r := range wr.Reasons {
		fmt.Println("  invalid:", r)
	}
	for _, def := range endToEndDefs {
		if s := wr.EndToEnd[def.Name]; s != nil {
			fmt.Printf("  %-44s %12s %-8s [q1 %s, q3 %s, %d runs]\n", def.Name, show(s.Median), s.Unit, show(s.Q1), show(s.Q3), len(s.Runs))
		}
	}
	for i, c := range wr.Counts.Measured {
		fmt.Printf("  measured run %d: %+v\n", i+1, c)
	}
	if c := wr.Counts.Reference; c != nil {
		fmt.Printf("  reference run: %+v\n", *c)
	}
	if c := wr.Counts.Traced; c != nil {
		fmt.Printf("  traced run: %+v\n", *c)
	}
	for _, def := range perLayerDefs() {
		if v, ok := wr.PerLayer[def.Name]; ok {
			fmt.Printf("  %-44s %12s %s\n", def.Name, show(v.Value), v.Unit)
		}
	}
	if len(wr.PerLayer) > 0 {
		fmt.Println("  (null: fewer than", minTail, "samples beyond the percentile, or nothing to measure; rows this workload does not exercise are omitted)")
	}
	if len(wr.Notes) > 0 {
		fmt.Println("  notes:", strings.Join(wr.Notes, "\n         "))
	}
}
