package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mvml/internal/obs"
)

var update = flag.Bool("update", false, "regenerate testdata/spans.jsonl and the golden outputs from the fixture generator")

const fixturePath = "testdata/spans.jsonl"

// Fixture timeline: one request every 200 ms on a fake clock. The request
// just before slowTrace is where the truncated copy is cut.
const (
	coldStarts   = 5   // first requests, 20x slower in every stage
	compromiseAt = 40  // version a starts disagreeing from this request on
	triggerAt    = 55  // after this request's vote, a's 32-round window is half disagreement
	slowTrace    = 60  // one 20x-slow request inside the incident: the exemplar
	rejuvenateAt = 63  // reactive rejuvenation of version a lands before this request
	sampledFrom  = 90  // tail sampling (rate 0.1) engages here
	requests     = 140 //
	period       = 0.2 // seconds between requests
)

// buildFixture generates the committed span export: a compromise → divergence
// → trigger → rejuvenation arc recorded in full, one slow exemplar inside the
// incident, and a sampled-out stretch of healthy traffic at the end. Every
// span goes through a real SpanSink (its tail sampler and JSONL exporter)
// with explicit timestamps, so the file is byte-stable. It also returns the
// byte offset at which the slow-exemplar trace starts.
func buildFixture(t *testing.T) (full []byte, cut int) {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewSpanSink(16)
	sink.SetWriter(&buf)
	var nextID uint64
	id := func() uint64 { nextID++; return nextID }
	versions := []string{"a", "b", "c"}
	forward := []float64{0.001, 0.002, 0.0015}
	var triggerT float64

	for k := 0; k < requests; k++ {
		t0 := float64(k) * period
		switch k {
		case compromiseAt:
			sink.EmitBatch([]obs.SpanRecord{{Trace: id(), ID: id(), Kind: "compromise",
				Start: t0 - 0.01, End: t0 - 0.01, Attrs: map[string]any{"version": "a"}}})
		case slowTrace:
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			cut = buf.Len()
		case rejuvenateAt:
			sink.EmitBatch([]obs.SpanRecord{{Trace: id(), ID: id(), Kind: "rejuvenation",
				Start: t0 - 0.1, End: t0 - 0.05,
				Attrs: map[string]any{"version": "a", "kind": "reactive", "drain_ms": 50.0}}})
		case sampledFrom:
			sink.SetSampler(obs.NewSampler(obs.SampleConfig{Rate: 0.1, Seed: 1}))
		}
		scale := 1.0
		if k < coldStarts || k == slowTrace {
			scale = 20
		}
		var diverged []string
		switch {
		case k >= compromiseAt && k < rejuvenateAt:
			diverged = []string{"a"}
		case k == 20:
			diverged = []string{"b"} // a one-off, so the online α has a pair to measure
		}

		trace, root := id(), id()
		at := t0
		child := func(parent uint64, kind string, d float64, attrs map[string]any) obs.SpanRecord {
			rec := obs.SpanRecord{Trace: trace, ID: id(), Parent: parent, Kind: kind, Start: at, End: at + d*scale, Attrs: attrs}
			at = rec.End
			return rec
		}
		recs := []obs.SpanRecord{child(root, "queue_wait", 0.002, nil)}
		batch := child(root, "batch", 0, map[string]any{"batch_size": 1, "queue_depth": k % 3})
		at = batch.Start
		for v, name := range versions {
			recs = append(recs, child(batch.ID, "forward", forward[v], map[string]any{"version": name}))
		}
		batch.End = at
		vote := map[string]any{"voters": versions, "proposals": 3, "agreeing": 3 - len(diverged)}
		if diverged != nil {
			vote["diverged"] = diverged
		}
		recs = append(recs, batch, child(root, "vote", 0.00002, vote))
		recs = append(recs, obs.SpanRecord{Trace: trace, ID: root, Kind: "request", Start: t0, End: at,
			Attrs: map[string]any{"class": k % 43}})
		sink.EmitBatch(recs)
		if k == triggerAt {
			triggerT = at
		}
	}
	// The serving pool's reactive trigger, at the vote that filled a's window
	// to the threshold. It is exported last so that it takes no id from the
	// requests after it; every tool orders spans by time, not file position.
	sink.EmitBatch([]obs.SpanRecord{{Trace: id(), ID: id(), Kind: "rejuvenation_trigger",
		Start: triggerT, End: triggerT, Attrs: map[string]any{"version": "a", "rate": 0.5}}})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), cut
}

// runCLI invokes the tool in-process.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFixtureIsWhatTheGeneratorBuilds keeps testdata/spans.jsonl honest: it
// is exactly the generator's output (a change to the span JSON encoding or
// the sampler's hash shows up here first). -update rewrites it.
func TestFixtureIsWhatTheGeneratorBuilds(t *testing.T) {
	want, _ := buildFixture(t)
	if *update {
		if err := os.WriteFile(fixturePath, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the generator's output; run go test ./cmd/mvtrace -update", fixturePath)
	}
}

// TestGolden pins every subcommand's stdout over the committed fixture.
func TestGolden(t *testing.T) {
	cases := [][]string{
		{"summary"}, {"summary", "-format", "json"},
		{"top", "-n", "5"}, {"top", "-n", "5", "-format", "json"},
		{"waterfall"}, {"waterfall", "-trace", "483"},
		{"health"}, {"health", "-format", "json"},
		{"dash"}, {"dash", "-format", "json"},
	}
	for _, args := range cases {
		name := strings.ReplaceAll(strings.Join(args, "_"), "-", "")
		t.Run(name, func(t *testing.T) {
			full := append([]string{args[0], "-in", fixturePath}, args[1:]...)
			code, stdout, stderr := runCLI(full...)
			if code != 0 {
				t.Fatalf("mvtrace %v exited %d: %s", full, code, stderr)
			}
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if stdout != string(want) {
				t.Errorf("mvtrace %v stdout differs from %s (run with -update after an intended change):\n%s", full, golden, stdout)
			}
		})
	}
}

// TestGates: both CI gates pass on the fixture and fail (exit 1, not a usage
// error) on a copy truncated just before the slow exemplar, keeping the
// trigger exported last — which still has the incident window open but no
// rejuvenation, and no exemplar reaching it.
func TestGates(t *testing.T) {
	full, cut := buildFixture(t)
	trigger := full[bytes.LastIndexByte(full[:len(full)-1], '\n')+1:]
	truncated := filepath.Join(t.TempDir(), "truncated.jsonl")
	if err := os.WriteFile(truncated, append(full[:cut:cut], trigger...), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, gate := range [][]string{{"health", "-require-incident"}, {"dash", "-require-exemplars"}} {
		if code, _, stderr := runCLI(gate[0], "-in", fixturePath, gate[1]); code != 0 {
			t.Errorf("%v on the fixture exited %d: %s", gate, code, stderr)
		}
		code, stdout, stderr := runCLI(gate[0], "-in", truncated, gate[1])
		if code != 1 || stdout == "" || !strings.Contains(stderr, "mvtrace: ") {
			t.Errorf("%v on the truncated copy: exit %d (want 1, with the report still on stdout), stderr %q", gate, code, stderr)
		}
	}
}

// TestUsageErrors: a bad invocation exits 2 with the usage text on stderr
// and nothing on stdout.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"dash"}, // no -in
		{"dash", "-metrics-addr", "x"},
		{"dash", "-in", fixturePath, "-bucket", "1s"},
		{"dash", "-in", fixturePath, "-width", "0"},
		{"summary", "-in", fixturePath, "-format", "xml"},
		{"health", "-in", fixturePath, "-format", "xml"},
		{"top", "-in", fixturePath, "-no-such-flag"},
	} {
		code, stdout, stderr := runCLI(args...)
		if code != 2 || stdout != "" || !strings.Contains(strings.ToLower(stderr), "usage") {
			t.Errorf("mvtrace %v: exit %d, stdout %q, stderr %q; want 2 with usage on stderr", args, code, stdout, stderr)
		}
	}
	// A missing or unreadable export is a failed analysis, not a usage error.
	if code, _, stderr := runCLI("summary", "-in", filepath.Join(t.TempDir(), "none.jsonl")); code != 1 || stderr == "" {
		t.Errorf("missing export: exit %d, stderr %q; want 1 with an error", code, stderr)
	}
}

// TestDashSizesStoreFromHorizon: a simulated-time export (one DSPN run-end
// span at t = 5.05e6 s) renders in a few buckets, not one per second of its
// horizon.
func TestDashSizesStoreFromHorizon(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dspn.jsonl")
	span := `{"trace":1,"id":1,"kind":"petri_run_end","start":5050000,"end":5050000}` + "\n"
	if err := os.WriteFile(path, []byte(span), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dash, err := offline(path, 8, 40)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 32<<20 {
		t.Fatalf("offline allocated %d MB for a one-span export, want < 32 MB", got>>20)
	}
	if len(dash.SlowTop) != 1 || dash.Horizon != 5050000 {
		t.Fatalf("dashboard = %+v, want the one petri_run_end stage over a 5.05e6 s horizon", dash)
	}
}
