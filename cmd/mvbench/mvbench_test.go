package main

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mvml/internal/nn"
	"mvml/internal/signs"
	"mvml/internal/xrand"
)

// tinyProfile keeps tier-1 fast: three untrained one-layer nets on a small
// dataset. The versions share one initialisation (as mvgateway's fast demo
// profile does), so they agree until one is compromised — which is what the
// reactive trigger needs — and a compromise perturbs enough weights to flip
// the one-layer argmax.
func tinyProfile(seed uint64) profile {
	ds := signs.DefaultConfig()
	ds.TrainPerClass, ds.TestPerClass, ds.Seed = 1, 2, seed
	p := profile{dataset: ds, injectCount: 64}
	for v := 0; v < 3; v++ {
		name := "tiny-" + string(rune('a'+v))
		p.versions = append(p.versions, func(*xrand.Rand) (*nn.Network, error) {
			return &nn.Network{Name: name, Layers: []nn.Layer{
				nn.NewFlatten("flat"),
				nn.NewDense("fc", nn.InputChannels*nn.InputSize*nn.InputSize, signs.NumClasses, xrand.New(1234)),
			}}, nil
		})
	}
	return p
}

func tinyFixture(t *testing.T) *fixture {
	t.Helper()
	f, err := newFixture(7, tinyProfile(7))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// shortPhases shrinks the warm-up for the duration of a test.
func shortPhases(t *testing.T) {
	t.Helper()
	old := warmUp
	warmUp = 20 * time.Millisecond
	t.Cleanup(func() { warmUp = old })
}

func TestNearestRankAndWindowMedian(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := nearestRank(sorted, 0.50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := nearestRank(sorted, 0.90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	// 100 samples leave only 5 beyond p95: not a tail, so no number.
	if got := nearestRank(sorted, 0.95); !math.IsNaN(got) {
		t.Errorf("p95 of 100 samples = %v, want NaN", got)
	}

	// Five 1 s windows of 40 ops each; window w holds latencies (w+1)·1..40 ms,
	// so the window p50s are 20, 40, 60, 80, 100 ms and their median is 60.
	var recs []opRecord
	for w := 0; w < numWindows; w++ {
		for i := 1; i <= 40; i++ {
			start := time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond
			recs = append(recs, opRecord{start: start, end: start + time.Duration((w+1)*i)*time.Millisecond})
		}
	}
	if got := windowQuantile(recs, 5*time.Second, 0.5); got != 60 {
		t.Errorf("window-median p50 = %v, want 60", got)
	}
	// One window without enough samples makes the whole metric unreportable.
	if got := windowQuantile(recs[:170], 5*time.Second, 0.5); !math.IsNaN(got) {
		t.Errorf("thin last window: got %v, want NaN", got)
	}
	// Failed ops carry no latency.
	for i := range recs[:40] {
		recs[i].out = opFailed
	}
	if got := windowQuantile(recs, 5*time.Second, 0.5); !math.IsNaN(got) {
		t.Errorf("window of failures: got %v, want NaN", got)
	}
}

func TestWindowAnswered(t *testing.T) {
	// Window 0 of a 5 s phase: nine answers and one failure that must not count.
	var recs []opRecord
	for i := 1; i <= 9; i++ {
		recs = append(recs, opRecord{end: time.Duration(i) * 100 * time.Millisecond})
	}
	recs = append(recs, opRecord{end: 950 * time.Millisecond, out: opFailed})
	// An answer that completes after the phase belongs to no window.
	recs = append(recs, opRecord{start: 4900 * time.Millisecond, end: 5100 * time.Millisecond})
	if n := windowAnswered(recs, 5*time.Second); n != [numWindows]int{9, 0, 0, 0, 0} {
		t.Errorf("answered per window = %v, want 9 in window 0 only", n)
	}
	// Goodput is answered ops over the phase's wall time; a window that
	// answered nothing leaves the CPU cost per op unmeasurable.
	ph := &phase{d: 5 * time.Second, wall: 5 * time.Second, recs: recs, counts: tally(recs, 3)}
	e := ph.endToEnd(0)
	if e[mGoodput] != 2 || !math.IsNaN(e[mCPU]) {
		t.Errorf("goodput %v op/s, cpu %v; want 2 and NaN", e[mGoodput], e[mCPU])
	}
}

func TestDisturbed(t *testing.T) {
	late := make([]opRecord, 2000)
	for i := range late[:40] { // 2 % of the requests fired 50 ms late
		late[i].lag = 50 * time.Millisecond
	}
	cases := []struct {
		name string
		ph   phase
		want bool
	}{
		{"quiet", phase{stall: 15 * time.Millisecond, recs: make([]opRecord, 2000)}, false},
		{"host froze", phase{stall: 400 * time.Millisecond}, true},
		{"generator late", phase{recs: late}, true},
	}
	for _, c := range cases {
		if got := c.ph.disturbed(); (got != "") != c.want {
			t.Errorf("%s: disturbed() = %q, want flagged %v", c.name, got, c.want)
		}
	}
	// The watch sees at least a stall it is made to sit through.
	stop := watchStalls()
	time.Sleep(3 * stallTick)
	if worst := stop(); worst < 0 || worst > time.Second {
		t.Errorf("stall watch reported %v on an idle process", worst)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	a := openSchedule(xrand.New(5).Split("x", 0), 400, time.Second, 100)
	b := openSchedule(xrand.New(5).Split("x", 0), 400, time.Second, 100)
	c := openSchedule(xrand.New(6).Split("x", 0), 400, time.Second, 100)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	if len(a) != 400 {
		t.Errorf("400 req/s for 1 s scheduled %d requests", len(a))
	}
	if n := windowOf(a, 2, time.Second); n != 400/numWindows {
		t.Errorf("window 2 holds %d requests, want %d", n, 400/numWindows)
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due || a[i].due >= time.Second || a[i].img < 0 || a[i].img >= 100 {
			t.Fatalf("bad arrival %d: %+v", i, a[i])
		}
	}
}

// windowOf counts the arrivals due in window w of a schedule over d.
func windowOf(sched []arrival, w int, d time.Duration) int {
	n := 0
	for _, a := range sched {
		if int(int64(a.due)*numWindows/int64(d)) == w {
			n++
		}
	}
	return n
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 10},
		// Nested: 2 is inside 1, 3 inside 2.
		{ID: 2, Parent: 1, Start: 1, End: 5},
		{ID: 3, Parent: 2, Start: 2, End: 3},
		// Overlapping siblings under 1: [4,8] and [6,9] cover [4,9] once;
		// [1,5] and [4,8] overlap on [4,5] too. Union under 1 is [1,9].
		{ID: 4, Parent: 1, Start: 4, End: 8},
		{ID: 5, Parent: 1, Start: 6, End: 9},
		// A child that overhangs its parent only counts inside it.
		{ID: 6, Start: 20, End: 22},
		{ID: 7, Parent: 6, Start: 21, End: 30},
	}
	self := selfTimes(spans)
	want := map[uint64]float64{1: 2, 2: 3, 3: 1, 4: 4, 5: 3, 6: 1, 7: 9}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-12 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestOracleCountsWrongAnswers(t *testing.T) {
	f := tinyFixture(t)
	class, degraded := f.oracle.reference(0)
	right := answer{class: class, degraded: degraded, proposals: 3}
	if !f.oracle.matches(0, right) {
		t.Fatal("the reference answer does not match the oracle")
	}
	recs := []opRecord{
		{img: 0, ans: right},
		{img: 0, ans: answer{class: (class + 1) % signs.NumClasses, degraded: degraded, proposals: 3}}, // wrong class
		{img: 0, ans: answer{class: class, degraded: !degraded, proposals: 3}},                         // wrong flag
		{img: 0, ans: answer{class: class, degraded: degraded, proposals: 0}},                          // no proposals
		{img: 0, out: opRejected},
	}
	judge(f, recs)
	c := tally(recs, 3)
	if c.OK != 1 || c.Wrong != 3 || c.Rejected != 1 || c.bad() != 4 {
		t.Errorf("tally = %+v, want 1 ok, 3 wrong, 1 rejected", c)
	}
	ph := &phase{d: time.Second, wall: time.Second, recs: recs, counts: c}
	if got := ph.endToEnd(0)[mFailedShare]; got != 0.8 {
		t.Errorf("failed_share = %v, want 0.8", got)
	}

	// degraded_share is over the whole healthy ensemble's answers only: a
	// partial ensemble's and the compromised shard's degraded flags are timing.
	share := tally([]opRecord{
		{ans: answer{proposals: 3}},
		{ans: answer{proposals: 3, degraded: true}},
		{ans: answer{proposals: 2, degraded: true}},
		{ans: answer{proposals: 3, degraded: true}, out: opExempt},
	}, 3)
	if share.Degraded != 3 || share.Full != 2 || share.FullDegraded != 1 {
		t.Errorf("tally = %+v, want 3 degraded, 2 full, 1 full and degraded", share)
	}
	if got := (&phase{d: time.Second, wall: time.Second, counts: share}).endToEnd(0)[mDegradedShare]; got != 0.5 {
		t.Errorf("degraded_share = %v, want 0.5", got)
	}

	// A partial ensemble's answer must be flagged degraded and equal the
	// vote of some two versions.
	sub := f.oracle.subsets[2][0]
	pc, pd := f.oracle.expect(0, sub)
	if !pd {
		t.Error("a two-version answer must be degraded")
	}
	if !f.oracle.matches(0, answer{class: pc, degraded: true, proposals: 2}) {
		t.Error("a two-version vote does not match the oracle")
	}
	if f.oracle.matches(0, answer{class: pc, degraded: false, proposals: 2}) {
		t.Error("an unflagged partial answer matched the oracle")
	}
}

// TestWorkloadsEndToEnd drives every workload for a fraction of a second on
// the tiny profile: each must build, answer everything correctly and tear
// down. The percentile rows are null at this length; counts are not.
func TestWorkloadsEndToEnd(t *testing.T) {
	shortPhases(t)
	f := tinyFixture(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			d := 300 * time.Millisecond
			if w.name == wlFleet {
				d = 1500 * time.Millisecond // room for the three scripted events
			}
			ph, err := runPhase(w, f, d, traced, xrand.New(1).Split(w.name, 0))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if ph.counts.Attempted == 0 || ph.counts.bad() != 0 {
				t.Errorf("%s traced=%v: counts %+v", w.name, traced, ph.counts)
			}
			for _, p := range ph.problems {
				t.Errorf("%s traced=%v: %s", w.name, traced, p)
			}
			if w.name == wlFleet && (ph.counts.Exempt == 0 || ph.extra["serve.rejuvenations_total"] < 4) {
				t.Errorf("fleet traced=%v: %d exempt ops, %v rejuvenations; want a compromise window and >= 4",
					traced, ph.counts.Exempt, ph.extra["serve.rejuvenations_total"])
			}
			if traced && len(ph.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.name)
			}
			if !traced && len(ph.spans) != 0 {
				t.Errorf("%s: untraced run recorded %d spans", w.name, len(ph.spans))
			}
		}
	}
}

func sum(unit string, runs ...float64) *summary { return summarise(unit, runs) }

func TestCompareVerdicts(t *testing.T) {
	lower := gate{bound: 0.10}
	higher := gate{bound: 0.06, higher: true}
	failed := gate{bound: 0, absolute: true}
	cases := []struct {
		name     string
		g        gate
		old, cur *summary
		want     string
	}{
		{"unchanged", lower, sum("ms", 10, 10.1, 9.9), sum("ms", 10.05, 10, 10.1), verdictOK},
		{"slower beyond bound", lower, sum("ms", 10, 10.1, 9.9), sum("ms", 11.5, 11.6, 11.4), verdictRegressed},
		{"faster", lower, sum("ms", 10, 10.1, 9.9), sum("ms", 8, 8.1, 7.9), verdictOK},
		{"noisy", lower, sum("ms", 8, 10, 12), sum("ms", 9, 11, 13), verdictUnresolved},
		{"noisy but every run better", lower, sum("ms", 10, 12, 14), sum("ms", 5, 6, 7), verdictOK},
		{"noisy but every run worse beyond bound", lower, sum("ms", 8, 10, 12), sum("ms", 20, 24, 30), verdictRegressed},
		{"noisy, every run worse but within bound of some", lower, sum("ms", 8, 10, 12), sum("ms", 12.5, 14, 16), verdictUnresolved},
		{"goodput fell", higher, sum("op/s", 1000, 1001, 999), sum("op/s", 900, 901, 899), verdictRegressed},
		{"goodput rose", higher, sum("op/s", 1000, 1001, 999), sum("op/s", 1100, 1101, 1099), verdictOK},
		{"failures appeared", failed, sum("ratio", 0, 0, 0), sum("ratio", 0.001, 0.001, 0.001), verdictRegressed},
		{"varying failures appeared", failed, sum("ratio", 0, 0, 0), sum("ratio", 0.001, 0.002, 0.004), verdictRegressed},
		{"one run of three failed", failed, sum("ratio", 0, 0, 0), sum("ratio", 0, 0, 0.001), verdictUnresolved},
		{"no failures", failed, sum("ratio", 0, 0, 0), sum("ratio", 0, 0, 0), verdictOK},
		{"metric missing", lower, sum("ms", 10), nil, verdictUnresolved},
		{"metric unmeasured", lower, sum("ms", 10), sum("ms", math.NaN()), verdictUnresolved},
	}
	for _, c := range cases {
		if got, _ := judgePair(c.g, c.old, c.cur); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesRoundTrip(t *testing.T) {
	mk := func(p50 ...float64) *result {
		return &result{Schema: schemaVersion, Workloads: []*workloadResult{{
			Name: wlHTTP, Valid: true,
			EndToEnd: map[string]*summary{mP50: sum("ms", p50...), mP95: sum("ms", math.NaN()),
				mFailedShare: sum("ratio", 0, 0, 0)},
		}}}
	}
	dir := t.TempDir()
	oldPath, newPath := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	if err := mk(4, 4.1, 3.9).write(oldPath); err != nil {
		t.Fatal(err)
	}
	if err := mk(5, 5.1, 4.9).write(newPath); err != nil {
		t.Fatal(err)
	}
	old, err := readResult(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := readResult(newPath)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(old.workload(wlHTTP).EndToEnd[mP95].Median)) {
		t.Error("a null median did not read back as NaN")
	}
	gs := map[string]gate{mP50: {bound: 0.08}, mP95: {bound: 0.10}, mFailedShare: {absolute: true}}
	var out bytes.Buffer
	if n := compareResults(&out, gs, old, cur); n != 1 {
		t.Errorf("%d regressed, want 1:\n%s", n, out.String())
	}
	for _, want := range []string{"regressed", "unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table lacks a %q row:\n%s", want, out.String())
		}
	}
	if n := compareResults(&out, gs, old, old); n != 0 {
		t.Errorf("a file regressed against itself %d times", n)
	}

	// A run flagged invalid decides nothing — except that its failed ops
	// still count.
	bad := cur.workload(wlHTTP)
	bad.Valid, bad.Reasons = false, []string{"measured run: generator lag p99 40.00 ms exceeds 10 ms"}
	out.Reset()
	if n := compareResults(&out, gs, old, cur); n != 0 || !strings.Contains(out.String(), "generator lag") {
		t.Errorf("an invalid run regressed %d times, or its reason is not shown:\n%s", n, out.String())
	}
	bad.EndToEnd[mFailedShare] = sum("ratio", 0.01, 0.02, 0.01)
	if n := compareResults(&out, gs, old, cur); n != 1 {
		t.Errorf("failed ops of an invalid run: %d regressed, want 1", n)
	}
}

// TestBenchmarkJSONMatchesCatalogue pins BENCHMARK.json to the catalogue in
// metrics.go: same workloads, same gated end-to-end metrics, same per-layer
// metrics, same units and directions.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var gotW []string
	for _, w := range bf.Workloads {
		gotW = append(gotW, w.Name)
	}
	if !reflect.DeepEqual(gotW, workloadNames()) {
		t.Errorf("workloads %v, want %v", gotW, workloadNames())
	}
	var wantE, gotE, wantP, gotP []metricDef
	for _, d := range endToEndDefs {
		if inBenchmarkFile(d.Name) {
			wantE = append(wantE, d)
		}
	}
	for _, m := range bf.EndToEnd {
		gotE = append(gotE, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(gotE, wantE) {
		t.Errorf("end_to_end %v, want %v", gotE, wantE)
	}
	wantP = perLayerDefs()
	for _, m := range bf.PerLayer {
		gotP = append(gotP, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(gotP, wantP) {
		t.Errorf("per_layer has %d metrics, catalogue %d; first difference: %s", len(gotP), len(wantP), firstDiff(gotP, wantP))
	}
}

func firstDiff(a, b []metricDef) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i].Name + " vs " + b[i].Name
		}
	}
	return "length"
}
