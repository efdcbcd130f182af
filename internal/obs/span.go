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
// retains, what the JSONL exporter writes, and what the flight recorder
// snapshots — a live Span is just a builder for one of these.
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
	// wall seconds since the sink's epoch for the serving path, simulated
	// seconds for the simulation stack.
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

// SpanObserver receives every batch of spans a sink publishes, after the
// sink's own lock is released. Observers must take their own locks; the sink
// guarantees the lock order sink → observer (it never calls an observer with
// its lock held), so an observer may snapshot the sink from inside
// ObserveSpans. The flight recorder and the health engine are the two
// in-tree observers.
type SpanObserver interface {
	ObserveSpans(recs []SpanRecord, now float64)
}

// SpanSink collects finished spans. It keeps the newest `capacity` records
// in a ring buffer (the flight recorder's pre-trigger window), optionally
// streams every record to a JSONL writer, and notifies attached
// SpanObservers (flight recorder, health engine) as records are published.
//
// A nil *SpanSink is a valid no-op handle: every method does nothing and
// StartTrace returns a nil (no-op) Span, so instrumented code needs no
// feature flags and a disabled path pays only nil checks.
type SpanSink struct {
	epoch time.Time

	nextTrace atomic.Uint64
	nextSpan  atomic.Uint64

	sampler atomic.Pointer[Sampler]

	mu        sync.Mutex
	buf       []SpanRecord
	start     int
	size      int
	total     uint64 // spans ever published (pre-sampling)
	retained  uint64 // spans that survived sampling (= total with no sampler)
	dropped   uint64
	dropC     *Counter // optional registry counter mirroring dropped
	w         *bufio.Writer
	werr      error
	observers []SpanObserver // full firehose: every published span
	sampled   []SpanObserver // post-sampling: retained spans only
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

// AttachSampled registers o to receive only the spans that survive tail
// sampling (everything, when no sampler is set). Aggregators that must
// reproduce identically from a sampled JSONL export attach here; true-rate
// consumers (health engine, flight recorder) use Attach.
func (s *SpanSink) AttachSampled(o SpanObserver) {
	if s == nil || o == nil {
		return
	}
	s.mu.Lock()
	s.sampled = append(s.sampled, o)
	s.mu.Unlock()
}

// SetSampler installs (or, with nil, removes) the tail sampler deciding
// which traces the ring buffer, the JSONL export and sampled observers
// retain. Full-firehose observers are unaffected.
func (s *SpanSink) SetSampler(sm *Sampler) {
	if s == nil {
		return
	}
	s.sampler.Store(sm)
}

// Sampler returns the installed tail sampler, or nil when recording
// everything.
func (s *SpanSink) Sampler() *Sampler {
	if s == nil {
		return nil
	}
	return s.sampler.Load()
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

// Retained returns how many published spans survived tail sampling (equal
// to Published when no sampler is installed).
func (s *SpanSink) Retained() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retained
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
// components that measure on their own clock (e.g. the simulation stack's
// simulated seconds). It returns the new span's id (0 on a nil sink).
func (s *SpanSink) Emit(trace, parent uint64, kind string, start, end float64, attrs map[string]any) uint64 {
	if s == nil {
		return 0
	}
	rec := SpanRecord{Trace: trace, ID: s.newSpanID(), Parent: parent,
		Kind: kind, Start: start, End: end, Attrs: attrs}
	s.publish([]SpanRecord{rec})
	return rec.ID
}

// EmitBatch publishes a batch of already-finished records at once — the
// whole-trace entry point for components that build complete traces on
// their own clock (and for replay tooling). The batch flows through the
// same sampling, ring, JSONL and observer path a root span's End uses.
func (s *SpanSink) EmitBatch(recs []SpanRecord) {
	if s == nil {
		return
	}
	s.publish(recs)
}

// publish routes a batch of finished records: the tail sampler (when set)
// decides retention first, then ring insertion and JSONL streaming of the
// retained subset happen under one lock acquisition, then observers are
// notified — full-firehose observers with the whole batch, sampled observers
// with the retained subset.
func (s *SpanSink) publish(recs []SpanRecord) {
	if s == nil || len(recs) == 0 {
		return
	}
	now := s.Now()
	retained := s.sampler.Load().Retain(recs)
	s.mu.Lock()
	s.total += uint64(len(recs))
	s.retained += uint64(len(retained))
	for _, rec := range retained {
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
	sampledWatchers := s.sampled
	s.mu.Unlock()
	// Outside s.mu: observers take their own locks and may snapshot the sink
	// again (lock order is always sink → observer, never nested).
	for _, o := range watchers {
		o.ObserveSpans(recs, now)
	}
	if len(retained) > 0 {
		for _, o := range sampledWatchers {
			o.ObserveSpans(retained, now)
		}
	}
}

// ReadSpans parses a JSON Lines span export back into records, the inverse
// of the sink's streaming writer.
func ReadSpans(r io.Reader) ([]SpanRecord, error) {
	var out []SpanRecord
	dec := json.NewDecoder(r)
	for {
		var rec SpanRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("obs: decoding span line %d: %w", len(out)+1, err)
		}
		out = append(out, rec)
	}
}

// Span is a live, unfinished span. A Span is owned by exactly one goroutine
// at a time; ownership may transfer through a channel handoff (the queue
// between admission and the batcher provides the happens-before edge), but
// two goroutines must never touch the same Span concurrently.
//
// Child spans buffer their finished records inside the root, so a whole
// trace costs a single sink-lock acquisition when the root ends — the
// lock-cheap per-request recorder the serving hot path relies on. A nil
// *Span is a valid no-op handle.
type Span struct {
	sink  *SpanSink
	root  *Span // self for roots
	rec   SpanRecord
	buf   []SpanRecord // root only: finished descendants awaiting publish
	ended bool
}

// StartTrace opens a new trace rooted at a span of the given kind, starting
// now. Returns nil (a no-op Span) on a nil sink.
func (s *SpanSink) StartTrace(kind string) *Span {
	if s == nil {
		return nil
	}
	sp := &Span{sink: s, rec: SpanRecord{
		Trace: s.NewTraceID(), ID: s.newSpanID(), Kind: kind, Start: s.Now()}}
	sp.root = sp
	return sp
}

// TraceID returns the span's trace id (0 for a nil span).
func (sp *Span) TraceID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.rec.Trace
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

// Child opens a sub-span of the given kind starting now.
func (sp *Span) Child(kind string) *Span {
	if sp == nil {
		return nil
	}
	return &Span{sink: sp.sink, root: sp.root, rec: SpanRecord{
		Trace: sp.rec.Trace, ID: sp.sink.newSpanID(), Parent: sp.rec.ID,
		Kind: kind, Start: sp.sink.Now()}}
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
	sp.root.deposit(rec)
	return rec.ID
}

// deposit buffers one finished record in the root, or publishes directly
// when the root has already gone out (late child).
func (root *Span) deposit(rec SpanRecord) {
	if root.ended {
		root.sink.publish([]SpanRecord{rec})
		return
	}
	root.buf = append(root.buf, rec)
}

// End finishes the span now. A child deposits its record into the root; the
// root publishes every buffered descendant plus itself in one batch.
// Idempotent: a second End is a no-op.
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
	if sp.root != sp {
		sp.root.deposit(sp.rec)
		return
	}
	recs := append(sp.buf, sp.rec)
	sp.buf = nil
	sp.sink.publish(recs)
}
