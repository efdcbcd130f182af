package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func newTestRecorder(t *testing.T, post time.Duration, maxIncidents int) (*FlightRecorder, *SpanSink) {
	t.Helper()
	sink := NewSpanSink(32)
	fr, err := NewFlightRecorder(t.TempDir(), post, maxIncidents, sink)
	if err != nil {
		t.Fatal(err)
	}
	sink.Attach(fr)
	return fr, sink
}

func readIncident(t *testing.T, path string) Incident {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var inc Incident
	if err := json.Unmarshal(b, &inc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return inc
}

func TestFlightRecorderCapturesPreAndPostWindow(t *testing.T) {
	fr, sink := newTestRecorder(t, 50*time.Millisecond, 0)

	sink.Emit(1, 0, "before", 0, 1, nil)
	sink.Emit(2, 0, "compromise", 0.5, 0.5, nil) // an instant: zero-duration span
	fr.Trigger("compromise", map[string]any{"version": "a"})
	sink.Emit(1, 0, "during", 1, 2, nil) // inside the post-window

	time.Sleep(60 * time.Millisecond)
	// This publish lands after the post-window and also finalises it.
	sink.Emit(1, 0, "after", 2, 3, nil)

	files := fr.Incidents()
	if len(files) != 1 {
		t.Fatalf("incident files: %v", files)
	}
	inc := readIncident(t, files[0])
	if inc.Reason != "compromise" || inc.Attrs["version"] != "a" {
		t.Fatalf("incident header: %+v", inc)
	}
	kinds := map[string]bool{}
	for _, r := range inc.Spans {
		kinds[r.Kind] = true
	}
	if !kinds["before"] || !kinds["compromise"] || !kinds["during"] {
		t.Fatalf("incident spans missing pre/post capture: %v", kinds)
	}
	if kinds["after"] {
		t.Fatal("incident captured a span past its post-window")
	}
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFlightRecorderFoldsSameReason(t *testing.T) {
	fr, _ := newTestRecorder(t, time.Minute, 0)
	fr.Trigger("divergence", nil)
	fr.Trigger("divergence", nil)
	fr.Trigger("divergence", nil)
	fr.Trigger("compromise", nil) // distinct reason: its own incident
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	files := fr.Incidents()
	if len(files) != 2 {
		t.Fatalf("incident files: %v", files)
	}
	inc := readIncident(t, files[0])
	if inc.Reason != "divergence" || inc.FollowUps != 2 {
		t.Fatalf("folding failed: reason=%s follow_ups=%d", inc.Reason, inc.FollowUps)
	}
}

func TestFlightRecorderMaxIncidents(t *testing.T) {
	fr, _ := newTestRecorder(t, time.Nanosecond, 2)
	time.Sleep(time.Millisecond) // every post-window expires immediately
	fr.Trigger("a", nil)
	time.Sleep(time.Millisecond)
	fr.Trigger("b", nil)
	time.Sleep(time.Millisecond)
	fr.Trigger("c", nil) // over the cap: dropped
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	if files := fr.Incidents(); len(files) != 2 {
		t.Fatalf("cap not enforced: %v", files)
	}
}

func TestFlightRecorderFilenames(t *testing.T) {
	fr, _ := newTestRecorder(t, time.Minute, 0)
	fr.Trigger("rejuvenation_reactive", nil)
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	files := fr.Incidents()
	if len(files) != 1 {
		t.Fatalf("incident files: %v", files)
	}
	if got := filepath.Base(files[0]); got != "incident-000-rejuvenation_reactive.json" {
		t.Fatalf("incident filename %q", got)
	}
}

// TestFlightRecorderConcurrentTriggers hammers the recorder with parallel
// triggers and publishes and checks the invariants that keep a sustained
// fault from flooding the disk: at most MaxIncidents incident files are
// written; every trigger of a within-cap reason is accounted for either as
// an incident or as a FollowUp fold; and no incident holds the same span
// twice (the Trigger snapshot and the publish stream race on every span).
func TestFlightRecorderConcurrentTriggers(t *testing.T) {
	const (
		maxIncidents = 4
		goroutines   = 8
		perGoroutine = 50
	)
	// A long post-window keeps every incident open for the whole test, so
	// same-reason folding applies to all triggers after the first.
	fr, sink := newTestRecorder(t, time.Minute, maxIncidents)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reason := fmt.Sprintf("reason-%d", g%2) // two reasons, both within cap
			for i := 0; i < perGoroutine; i++ {
				fr.Trigger(reason, nil)
				sink.Emit(uint64(g+1), 0, "work", float64(i), float64(i)+1, nil)
			}
		}(g)
	}
	wg.Wait()
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}

	files := fr.Incidents()
	if len(files) > maxIncidents {
		t.Fatalf("cap breached: %d incidents written, cap %d", len(files), maxIncidents)
	}
	// Both reasons fit under the cap, so every trigger must be accounted for:
	// one incident per reason plus FollowUps covering the rest.
	byReason := map[string]int{}
	for _, path := range files {
		inc := readIncident(t, path)
		byReason[inc.Reason] += 1 + inc.FollowUps
		seen := map[uint64]bool{}
		for _, r := range inc.Spans {
			if r.ID == 0 {
				continue
			}
			if seen[r.ID] {
				t.Fatalf("incident %d captured span %d twice", inc.ID, r.ID)
			}
			seen[r.ID] = true
		}
	}
	total := goroutines * perGoroutine
	if byReason["reason-0"]+byReason["reason-1"] != total {
		t.Fatalf("lost triggers: %v (want %d total)", byReason, total)
	}
}

// TestFlightRecorderExactlyOnceCapture races one trigger against a stream of
// publishes and checks that, with a ring large enough to never evict, the
// single open incident holds every span published before Close exactly once:
// no span is lost in the gap between the pre-trigger snapshot and the
// observer registration, and none is double-counted.
func TestFlightRecorderExactlyOnceCapture(t *testing.T) {
	const spans = 400
	sink := NewSpanSink(spans + 16)
	fr, err := NewFlightRecorder(t.TempDir(), time.Minute, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	sink.Attach(fr)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < spans; i++ {
			sink.Emit(1, 0, "work", float64(i), float64(i)+1, nil)
		}
	}()
	fr.Trigger("race", nil) // concurrent with the publish stream
	<-done
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}

	files := fr.Incidents()
	if len(files) != 1 {
		t.Fatalf("incident files: %v", files)
	}
	inc := readIncident(t, files[0])
	seen := map[uint64]bool{}
	for _, r := range inc.Spans {
		if seen[r.ID] {
			t.Fatalf("span %d captured twice", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seen) != spans {
		t.Fatalf("captured %d distinct spans, want %d", len(seen), spans)
	}
}

func TestFlightRecorderNilSafety(t *testing.T) {
	var fr *FlightRecorder
	fr.Trigger("x", nil)
	fr.ObserveSpans(nil, 0)
	if fr.Dir() != "" || fr.Incidents() != nil {
		t.Fatal("nil recorder not empty")
	}
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	// A recorder with no sink still writes incidents.
	fr2, err := NewFlightRecorder(t.TempDir(), time.Minute, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	fr2.Trigger("bare", nil)
	if err := fr2.Close(); err != nil {
		t.Fatal(err)
	}
	if len(fr2.Incidents()) != 1 {
		t.Fatal("bare recorder wrote no incident")
	}
}
