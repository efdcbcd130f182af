package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestSpanTraceStructure(t *testing.T) {
	s := NewSpanSink(64)
	root := s.StartTrace("request")
	root.SetAttr("class", 3)
	root.Interval("vote", 0.25, 0.5, nil)
	id := root.Interval("queue_wait", 0.5, 1.5, nil)
	if id == 0 {
		t.Fatal("Interval returned id 0")
	}
	root.IntervalUnder(id, "forward", 0.6, 1.0, map[string]any{"version": "a"})
	if got := s.Published(); got != 0 {
		t.Fatalf("children published before root ended: %d", got)
	}
	root.End()

	recs := s.Spans()
	if len(recs) != 4 {
		t.Fatalf("got %d spans, want 4", len(recs))
	}
	byKind := map[string]SpanRecord{}
	for _, r := range recs {
		if r.Trace != recs[len(recs)-1].Trace {
			t.Fatalf("span %q has trace %d, want %d", r.Kind, r.Trace, recs[len(recs)-1].Trace)
		}
		byKind[r.Kind] = r
	}
	if byKind["vote"].Parent != root.ID() {
		t.Fatalf("vote parent = %d, want root %d", byKind["vote"].Parent, root.ID())
	}
	if byKind["forward"].Parent != byKind["queue_wait"].ID {
		t.Fatal("IntervalUnder did not link forward under queue_wait")
	}
	if byKind["request"].Attrs["class"] != 3 {
		t.Fatalf("root attrs = %v", byKind["request"].Attrs)
	}
	if d := byKind["queue_wait"].Duration(); d != 1.0 {
		t.Fatalf("queue_wait duration = %v, want 1.0", d)
	}
	// The root is published last, so the whole trace went out in one batch.
	if recs[len(recs)-1].Kind != "request" {
		t.Fatalf("last published span is %q, want request", recs[len(recs)-1].Kind)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	s := NewSpanSink(8)
	sp := s.StartTrace("request")
	sp.End()
	sp.End()
	if got := s.Published(); got != 1 {
		t.Fatalf("double End published %d spans, want 1", got)
	}
}

func TestSpanLateChildPublishesDirectly(t *testing.T) {
	s := NewSpanSink(8)
	root := s.StartTrace("request")
	root.End()
	root.Interval("reply", 1, 2, nil)
	if got := s.Published(); got != 2 {
		t.Fatalf("late child not published: %d spans", got)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var s *SpanSink
	if s.Now() != 0 || s.NewTraceID() != 0 || s.Published() != 0 || s.Dropped() != 0 {
		t.Fatal("nil sink not zero-valued")
	}
	if s.Spans() != nil {
		t.Fatal("nil sink returned spans")
	}
	s.SetWriter(&bytes.Buffer{})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Emit(1, 0, "x", 0, 1, nil) != 0 {
		t.Fatal("nil sink emitted")
	}
	sp := s.StartTrace("request")
	if sp != nil {
		t.Fatal("nil sink returned a live span")
	}
	// Every method of a nil span is a no-op.
	sp.SetAttr("k", 1)
	if sp.Interval("i", 0, 1, nil) != 0 || sp.IntervalUnder(7, "i", 0, 1, nil) != 0 {
		t.Fatal("nil span recorded an interval")
	}
	sp.End()
	sp.EndAt(5)
	if sp.ID() != 0 {
		t.Fatal("nil span has ids")
	}
}

func TestSpanRingEviction(t *testing.T) {
	s := NewSpanSink(2)
	for i := 0; i < 5; i++ {
		s.Emit(1, 0, "x", float64(i), float64(i)+1, nil)
	}
	if got := s.Published(); got != 5 {
		t.Fatalf("published %d, want 5", got)
	}
	if got := s.Dropped(); got != 3 {
		t.Fatalf("dropped %d, want 3", got)
	}
	recs := s.Spans()
	if len(recs) != 2 || recs[0].Start != 3 || recs[1].Start != 4 {
		t.Fatalf("ring retained %v", recs)
	}
}

func TestSpanJSONLRoundTrip(t *testing.T) {
	s := NewSpanSink(16)
	var buf bytes.Buffer
	s.SetWriter(&buf)
	root := s.StartTrace("request")
	root.Interval("vote", 0, 0, nil)
	root.End()
	s.Emit(9, 0, "rejuvenation", 1, 2, map[string]any{"version": "b"})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Fatalf("wrote %d lines, want 3", lines)
	}
	recs, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d spans, want 3", len(recs))
	}
	last := recs[2]
	if last.Kind != "rejuvenation" || last.Trace != 9 || last.Attrs["version"] != "b" {
		t.Fatalf("round-trip mangled record: %+v", last)
	}
}

func TestSpanIDsUnique(t *testing.T) {
	s := NewSpanSink(64)
	seen := map[uint64]bool{}
	for i := 0; i < 16; i++ {
		sp := s.StartTrace("request")
		c := sp.Interval("c", 0, 0, nil)
		for _, id := range []uint64{sp.ID(), c} {
			if id == 0 || seen[id] {
				t.Fatalf("duplicate or zero span id %d", id)
			}
			seen[id] = true
		}
		sp.End()
	}
}

// TestTraceJSONLRoundTrip: an event trace — instants as zero-duration spans —
// survives the JSONL export with its attributes readable through the Attr
// accessors on both sides (JSON decodes numbers as float64 and string lists
// as []any).
func TestTraceJSONLRoundTrip(t *testing.T) {
	s := NewSpanSink(16)
	var buf bytes.Buffer
	s.SetWriter(&buf)
	trace := s.NewTraceID()
	s.Emit(trace, 0, "module_state", 0, 0.5, map[string]any{"module": "v1", "state": "H", "to": "C"})
	s.Emit(trace, 0, "collision", 1.25, 1.25, nil)
	s.Emit(trace, 0, "disagreement", 1.5, 1.5, map[string]any{"diverged": []string{"v1", "v3"}})
	s.Emit(trace, 0, "run_end", 2, 2, map[string]any{"frames": 120, "completed": true})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 4 {
		t.Fatalf("%d lines, want 4:\n%s", got, buf.String())
	}

	back, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Spans()
	if len(back) != len(want) {
		t.Fatalf("round-trip %d spans, want %d", len(back), len(want))
	}
	for i := range want {
		if back[i].ID != want[i].ID || back[i].Start != want[i].Start || back[i].End != want[i].End || back[i].Kind != want[i].Kind {
			t.Fatalf("span %d mismatch: %+v vs %+v", i, back[i], want[i])
		}
	}
	for _, recs := range [][]SpanRecord{want, back} {
		if recs[0].AttrString("to") != "C" || recs[1].AttrString("to") != "" || !recs[3].AttrBool("completed") {
			t.Fatalf("attrs lost: %+v", recs)
		}
		if frames, ok := recs[3].AttrFloat("frames"); !ok || frames != 120 {
			t.Fatalf("frames = %v, %v", frames, ok)
		}
		if d := recs[2].AttrStrings("diverged"); len(d) != 2 || d[1] != "v3" {
			t.Fatalf("diverged = %v", d)
		}
	}
	// Blank lines and surrounding whitespace are tolerated.
	recs, err := ReadSpans(strings.NewReader("\n{\"trace\":1,\"id\":9,\"kind\":\"x\",\"start\":1,\"end\":1}\n\n"))
	if err != nil || len(recs) != 1 || recs[0].ID != 9 {
		t.Fatalf("blank-line parse: %v %+v", err, recs)
	}
}

func TestReadJSONLBadInput(t *testing.T) {
	if _, err := ReadSpans(strings.NewReader("{not json")); err == nil {
		t.Fatal("expected decode error")
	}
	// Records that break SpanRecord's invariants, each on line 2.
	ok := `{"trace":1,"id":1,"kind":"request","start":1,"end":2}` + "\n"
	for _, bad := range []string{
		`{"trace":1,"id":2,"kind":"request","start":5,"end":1}`,
		`{"trace":0,"id":2,"kind":"request","start":1,"end":1}`,
		`{"trace":1,"id":0,"kind":"request","start":1,"end":1}`,
		`{"kind":"request","start":1,"end":1}`,
	} {
		_, err := ReadSpans(strings.NewReader(ok + bad + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("ReadSpans(%s): err %v, want an error naming line 2", bad, err)
		}
	}
}

// TestRingOverflowDropCounters overflows the span ring with intervals and
// instants alike and asserts the silent-loss bugfix: evictions must show up
// on the metrics path.
func TestRingOverflowDropCounters(t *testing.T) {
	rt := NewRuntime(4)
	for i := 0; i < 5; i++ {
		sp := rt.Spans().StartTrace("request")
		sp.End()
		rt.Spans().Emit(rt.Spans().NewTraceID(), 0, "tick", float64(i), float64(i), nil)
	}
	if got := rt.Spans().Dropped(); got != 6 {
		t.Fatalf("sink dropped %d, want 6", got)
	}
	if got := rt.Metrics().Counter(MetricDroppedSpans).Value(); got != 6 {
		t.Fatalf("%s = %d, want 6", MetricDroppedSpans, got)
	}
}
