package scenario

// The counterexample regression corpus: every file under testdata/corpus is
// a minimized violating scenario found by the falsifier and banked forever.
// TestCorpusReplay re-runs each one on every `go test ./...` and asserts the
// stored metrics are reproduced exactly — so any change to the simulator,
// the perception error model, the voter or the planner that alters behaviour
// on a known-dangerous scenario fails loudly, with the minimal scenario that
// exposes it attached.
//
// After an INTENTIONAL semantic change, refresh the stored metrics with:
//
//	go test ./internal/scenario -run TestCorpusReplay -update-corpus
//
// and review the metric diffs like any other golden change. Entries whose
// scenario no longer violates are reported; decide case by case whether the
// regression is real or the entry should be re-minimized via
// `mvml falsify search`.

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite stored corpus metrics from the current implementation")

// corpusDir is the counterexample corpus, replayed by TestCorpusReplay on
// every `go test ./...`.
const corpusDir = "testdata/corpus"

// minCorpusEntries is the floor the corpus must never shrink below.
const minCorpusEntries = 8

func TestCorpusReplay(t *testing.T) {
	entries, names, err := LoadCorpus(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < minCorpusEntries {
		t.Fatalf("corpus holds %d entries, need at least %d", len(entries), minCorpusEntries)
	}
	for i, e := range entries {
		name := filepath.Base(names[i])
		t.Run(name, func(t *testing.T) {
			if want := entryFilename(e.Scenario); name != want {
				t.Fatalf("file %s does not match its scenario fingerprint (want %s)", name, want)
			}
			got, err := Evaluate(e.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			if *updateCorpus {
				if got != e.Metrics {
					t.Logf("refreshing metrics: %s -> %s", DescribeMetrics(e.Metrics), DescribeMetrics(got))
				}
				e.Metrics = got
				if _, err := WriteEntry(corpusDir, e); err != nil {
					t.Fatal(err)
				}
			}
			if !got.Violation {
				t.Errorf("counterexample no longer violates: %s", DescribeMetrics(got))
			}
			if !*updateCorpus && got != e.Metrics {
				t.Errorf("replay diverged from stored metrics:\nstored: %+v\ngot:    %+v", e.Metrics, got)
			}
		})
	}
}

// TestCorpusEntryRoundTrip: corpus files are canonical — decoding and
// re-encoding each file must reproduce its bytes exactly, so no tool or
// editor churn can hide in the corpus diff history.
func TestCorpusEntryRoundTrip(t *testing.T) {
	names, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		e, err := DecodeEntry(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		enc, err := EncodeEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		if string(enc) != string(data) {
			t.Errorf("%s is not in canonical form", filepath.Base(name))
		}
	}
}

func TestCorpusHelpers(t *testing.T) {
	dir := t.TempDir()
	entries, _, err := LoadCorpus(filepath.Join(dir, "missing"))
	if err != nil || len(entries) != 0 {
		t.Fatalf("missing corpus dir: entries=%d err=%v", len(entries), err)
	}
	e := Entry{Scenario: sampleValid(), Note: "unit"}
	path, err := WriteEntry(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(filepath.Base(path), "ce-") {
		t.Fatalf("unexpected corpus filename %s", path)
	}
	loaded, _, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0].Note != "unit" {
		t.Fatalf("round-trip through corpus dir lost data: %+v", loaded)
	}
	fps := CorpusFingerprints(loaded)
	if !fps[Fingerprint(e.Scenario)] {
		t.Fatal("fingerprint set missing the written entry")
	}
}
