package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is one finished span: a named interval on the sink's clock,
// linked into a trace by parent/child ids. Records are what the ring buffer
// retains and what the JSONL exporter writes — a live Span is just a builder
// for one of these.
type SpanRecord struct {
	// Trace groups every span of one logical operation (e.g. one served
	// request); ids are unique per sink, never zero.
	Trace uint64 `json:"trace"`
	// ID is the span's own id, unique per sink, never zero.
	ID uint64 `json:"id"`
	// Parent is the enclosing span's id, or zero for a root span.
	Parent uint64 `json:"parent,omitempty"`
	// Kind names the stage this span measures ("request", "forward", ...).
	Kind string `json:"kind"`
	// Start and End are seconds on the emitting component's clock: monotonic
	// wall seconds since the sink's epoch (SpanSink.Now) for every span the
	// serving runtime emits. End is never before Start (ReadSpans rejects a
	// record where it is).
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Attrs carries span attributes; stored as given, so emitters must not
	// mutate the map afterwards.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Duration returns End - Start in seconds.
func (r SpanRecord) Duration() float64 { return r.End - r.Start }

// The Attr accessors read one attribute tolerant of both live values and
// JSONL round-trips (JSON decodes numbers as float64 and string slices as
// []any); a missing or differently-typed attribute yields the zero value.

// AttrString returns the string attribute key.
func (r SpanRecord) AttrString(key string) string {
	s, _ := r.Attrs[key].(string)
	return s
}

// AttrBool returns the bool attribute key.
func (r SpanRecord) AttrBool(key string) bool {
	b, _ := r.Attrs[key].(bool)
	return b
}

// AttrFloat returns the numeric attribute key and whether it was present.
func (r SpanRecord) AttrFloat(key string) (float64, bool) {
	switch x := r.Attrs[key].(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case uint64:
		return float64(x), true
	}
	return 0, false
}

// AttrStrings returns the string-list attribute key.
func (r SpanRecord) AttrStrings(key string) []string {
	switch xs := r.Attrs[key].(type) {
	case []string:
		return xs
	case []any:
		out := make([]string, 0, len(xs))
		for _, x := range xs {
			if s, ok := x.(string); ok {
				out = append(out, s)
			}
		}
		return out
	}
	return nil
}

// SpanObserver receives every batch of spans a sink publishes, in the order
// the sink wrote them to its JSONL export: publishes are serialised, so every
// observer sees the exact stream a replay of the export reads, batch for
// batch. The sink's ring lock is released before observers run, so an
// observer may snapshot the sink from inside ObserveSpans; it must never
// publish into the sink it observes (nor may a health Subscribe callback),
// since that would deadlock on the publish lock. The health engine is the
// in-tree observer.
type SpanObserver interface {
	ObserveSpans(recs []SpanRecord, now float64)
}

// SpanSink collects finished spans. It keeps the newest `capacity` records
// in a ring buffer, optionally streams every record to a JSONL writer (the
// one record of a run, complete and in publish order), and notifies attached
// SpanObservers (the health engine) as records are published.
//
// A nil *SpanSink is a valid no-op handle: every method does nothing and
// StartTrace returns a nil (no-op) Span, so instrumented code needs no
// feature flags and a disabled path pays only nil checks.
type SpanSink struct {
	epoch time.Time

	nextTrace atomic.Uint64
	nextSpan  atomic.Uint64

	// pub serialises whole publishes (ring, JSONL write and observer calls),
	// so observers see batches in file order. It is taken before mu.
	pub sync.Mutex

	mu        sync.Mutex
	buf       []SpanRecord
	start     int
	size      int
	total     uint64 // spans ever published
	dropped   uint64
	dropC     *Counter // optional registry counter mirroring dropped
	w         *bufio.Writer
	werr      error
	observers []SpanObserver
}

// NewSpanSink returns a sink retaining up to capacity finished spans
// (minimum 1). The sink's clock starts at zero now.
func NewSpanSink(capacity int) *SpanSink {
	if capacity < 1 {
		capacity = 1
	}
	return &SpanSink{epoch: time.Now(), buf: make([]SpanRecord, capacity)}
}

// Now returns seconds since the sink's epoch on the monotonic clock, the
// timebase of every wall-clock span. Returns 0 on a nil sink.
func (s *SpanSink) Now() float64 {
	if s == nil {
		return 0
	}
	return time.Since(s.epoch).Seconds()
}

// SetWriter streams every subsequently published span to w as JSON Lines
// (one SpanRecord per line). Call Flush before reading the destination.
func (s *SpanSink) SetWriter(w io.Writer) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w = bufio.NewWriter(w)
}

// Flush drains the JSONL writer and reports the first error any write hit.
func (s *SpanSink) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w != nil {
		if err := s.w.Flush(); err != nil && s.werr == nil {
			s.werr = err
		}
	}
	return s.werr
}

// Attach registers o to receive every subsequently published span batch.
// Attaching nil is a no-op.
func (s *SpanSink) Attach(o SpanObserver) {
	if s == nil || o == nil {
		return
	}
	s.mu.Lock()
	s.observers = append(s.observers, o)
	s.mu.Unlock()
}

// SetDropCounter mirrors ring-buffer evictions into a registry counter so
// silent span loss becomes visible on the metrics path.
func (s *SpanSink) SetDropCounter(c *Counter) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.dropC = c
	s.mu.Unlock()
}

// Spans returns the retained records, oldest first.
func (s *SpanSink) Spans() []SpanRecord {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SpanRecord, s.size)
	for i := 0; i < s.size; i++ {
		out[i] = s.buf[(s.start+i)%len(s.buf)]
	}
	return out
}

// Published returns the total number of spans ever published.
func (s *SpanSink) Published() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Dropped returns how many spans the ring evicted.
func (s *SpanSink) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// NewTraceID allocates a fresh trace id (0 on a nil sink).
func (s *SpanSink) NewTraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.nextTrace.Add(1)
}

// newSpanID allocates a fresh span id.
func (s *SpanSink) newSpanID() uint64 { return s.nextSpan.Add(1) }

// Emit publishes one already-finished span directly — the low-level path for
// a span that is not a request's stage, such as a lifecycle event or a shed
// decision, timed by the caller (e.g. an instant at SpanSink.Now). It returns
// the new span's id (0 on a nil sink).
func (s *SpanSink) Emit(trace, parent uint64, kind string, start, end float64, attrs map[string]any) uint64 {
	if s == nil {
		return 0
	}
	rec := SpanRecord{Trace: trace, ID: s.newSpanID(), Parent: parent,
		Kind: kind, Start: start, End: end, Attrs: attrs}
	s.publish([]SpanRecord{rec})
	return rec.ID
}

// publish routes a batch of finished records: ring insertion and JSONL
// streaming under the ring lock, then every observer with the whole batch.
// The publish lock spans all three, so concurrent publishers reach the
// observers in the order the export holds their batches.
func (s *SpanSink) publish(recs []SpanRecord) {
	if s == nil || len(recs) == 0 {
		return
	}
	s.pub.Lock()
	defer s.pub.Unlock()
	now := s.Now()
	s.mu.Lock()
	s.total += uint64(len(recs))
	for _, rec := range recs {
		if s.size < len(s.buf) {
			s.buf[(s.start+s.size)%len(s.buf)] = rec
			s.size++
		} else {
			s.buf[s.start] = rec
			s.start = (s.start + 1) % len(s.buf)
			s.dropped++
			s.dropC.Inc()
		}
		if s.w != nil && s.werr == nil {
			if b, err := json.Marshal(rec); err != nil {
				s.werr = err
			} else {
				b = append(b, '\n')
				if _, err := s.w.Write(b); err != nil {
					s.werr = err
				}
			}
		}
	}
	watchers := s.observers
	s.mu.Unlock()
	// Outside s.mu, so an observer may snapshot the sink.
	for _, o := range watchers {
		o.ObserveSpans(recs, now)
	}
}

// ReadSpans parses a JSON Lines span export back into records, the inverse
// of the sink's streaming writer. A record that breaks SpanRecord's
// invariants (a zero trace or span id, an end before its start) is an error.
func ReadSpans(r io.Reader) ([]SpanRecord, error) {
	var out []SpanRecord
	dec := json.NewDecoder(r)
	for {
		var rec SpanRecord
		line := len(out) + 1
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("obs: decoding span line %d: %w", line, err)
		}
		switch {
		case rec.Trace == 0 || rec.ID == 0:
			return nil, fmt.Errorf("obs: span line %d: zero trace or span id (trace %d, id %d)", line, rec.Trace, rec.ID)
		case rec.End < rec.Start:
			return nil, fmt.Errorf("obs: span line %d: end %v before start %v", line, rec.End, rec.Start)
		}
		out = append(out, rec)
	}
}

// Span is a live, unfinished span. A Span is owned by exactly one goroutine
// at a time; ownership may transfer through a channel handoff (the queue
// between admission and the batcher provides the happens-before edge), but
// two goroutines must never touch the same Span concurrently.
//
// Intervals buffer their finished records inside the span, so a whole trace
// costs a single sink-lock acquisition when the span ends — the
// lock-cheap per-request recorder the serving hot path relies on. A nil
// *Span is a valid no-op handle.
type Span struct {
	sink  *SpanSink
	rec   SpanRecord
	buf   []SpanRecord // finished intervals awaiting publish
	ended bool
}

// StartTrace opens a new trace rooted at a span of the given kind, starting
// now. Returns nil (a no-op Span) on a nil sink.
func (s *SpanSink) StartTrace(kind string) *Span {
	if s == nil {
		return nil
	}
	return &Span{sink: s, rec: SpanRecord{
		Trace: s.NewTraceID(), ID: s.newSpanID(), Kind: kind, Start: s.Now()}}
}

// ID returns the span's own id (0 for a nil span).
func (sp *Span) ID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.rec.ID
}

// SetAttr attaches one attribute to the span.
func (sp *Span) SetAttr(key string, v any) {
	if sp == nil {
		return
	}
	if sp.rec.Attrs == nil {
		sp.rec.Attrs = make(map[string]any, 4)
	}
	sp.rec.Attrs[key] = v
}

// Interval appends an already-finished child span [start, end] under sp and
// returns its id, usable as the parent of deeper intervals. This is how the
// batcher back-fills stages it measured before knowing which requests they
// belong to (queue wait, per-version forwards).
func (sp *Span) Interval(kind string, start, end float64, attrs map[string]any) uint64 {
	if sp == nil {
		return 0
	}
	return sp.IntervalUnder(sp.rec.ID, kind, start, end, attrs)
}

// IntervalUnder is Interval with an explicit parent span id (which must
// belong to the same trace).
func (sp *Span) IntervalUnder(parent uint64, kind string, start, end float64, attrs map[string]any) uint64 {
	if sp == nil {
		return 0
	}
	rec := SpanRecord{Trace: sp.rec.Trace, ID: sp.sink.newSpanID(), Parent: parent,
		Kind: kind, Start: start, End: end, Attrs: attrs}
	if sp.ended {
		sp.sink.publish([]SpanRecord{rec}) // a late interval: the span has gone out
	} else {
		sp.buf = append(sp.buf, rec)
	}
	return rec.ID
}

// End finishes the span now, publishing every buffered interval plus the span
// itself in one batch. Idempotent: a second End is a no-op.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.EndAt(sp.sink.Now())
}

// EndAt is End with an explicit end time on the sink's clock.
func (sp *Span) EndAt(end float64) {
	if sp == nil || sp.ended {
		return
	}
	sp.ended = true
	sp.rec.End = end
	recs := append(sp.buf, sp.rec)
	sp.buf = nil
	sp.sink.publish(recs)
}
