package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Incident is the flight recorder's self-contained snapshot of the window
// around one trigger: every span retained at trigger time (the pre-window,
// bounded by the ring capacity) plus every span that finished within
// PostWindow seconds afterwards.
type Incident struct {
	ID     int            `json:"id"`
	Reason string         `json:"reason"`
	Time   float64        `json:"t"` // sink seconds at trigger
	Attrs  map[string]any `json:"attrs,omitempty"`
	// PostWindow is the post-trigger capture horizon in seconds.
	PostWindow float64 `json:"post_window_seconds"`
	// FollowUps counts same-reason triggers folded into this incident while
	// its post-window was still open.
	FollowUps int          `json:"follow_ups,omitempty"`
	Spans     []SpanRecord `json:"spans,omitempty"`

	// seen tracks captured span ids so the pre-trigger snapshot and the
	// publish stream never record the same span twice (a publish can race
	// the trigger: its ring insert may land before the snapshot while its
	// observer notification lands after the incident opened).
	seen map[uint64]bool
}

// capture appends recs, skipping spans this incident already holds.
func (inc *Incident) capture(recs []SpanRecord) {
	if inc.seen == nil {
		inc.seen = make(map[uint64]bool, len(recs))
		for _, r := range inc.Spans {
			inc.seen[r.ID] = true
		}
	}
	for _, r := range recs {
		if r.ID != 0 && inc.seen[r.ID] {
			continue
		}
		inc.seen[r.ID] = true
		inc.Spans = append(inc.Spans, r)
	}
}

// DefaultPostWindow is the post-trigger capture horizon used when a
// FlightRecorder is built with a non-positive one.
const DefaultPostWindow = 2 * time.Second

// DefaultMaxIncidents bounds how many incident files one run may write.
const DefaultMaxIncidents = 32

// FlightRecorder reconstructs the seconds surrounding compromise,
// divergence and rejuvenation events. It rides on the bounded ring the
// span sink already maintains: Trigger snapshots it (the pre-window),
// then the recorder keeps appending spans as the sink
// publishes them until the post-window closes, and finally writes one
// self-contained JSON incident file into its directory.
//
// Incident finalisation is driven by subsequent span publishes and by
// Close, so a recorder never needs its own goroutine. Same-reason triggers
// arriving while an incident's post-window is open fold into it (the
// FollowUps counter), keeping a sustained fault from flooding the disk;
// the MaxIncidents cap bounds the worst case. A nil *FlightRecorder is a
// valid no-op handle.
type FlightRecorder struct {
	dir          string
	post         float64
	maxIncidents int
	sink         *SpanSink

	mu      sync.Mutex
	seq     int
	open    []*Incident
	closeAt []float64 // aligned with open
	written []string
	err     error
}

// NewFlightRecorder builds a recorder writing incident files into dir
// (created if missing). sink provides the pre-trigger window and may be nil.
// post <= 0 selects DefaultPostWindow; maxIncidents <= 0 selects
// DefaultMaxIncidents.
func NewFlightRecorder(dir string, post time.Duration, maxIncidents int, sink *SpanSink) (*FlightRecorder, error) {
	if post <= 0 {
		post = DefaultPostWindow
	}
	if maxIncidents <= 0 {
		maxIncidents = DefaultMaxIncidents
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: flight recorder dir: %w", err)
	}
	return &FlightRecorder{
		dir:          dir,
		post:         post.Seconds(),
		maxIncidents: maxIncidents,
		sink:         sink,
	}, nil
}

// Dir returns the incident directory ("" on a nil recorder).
func (f *FlightRecorder) Dir() string {
	if f == nil {
		return ""
	}
	return f.dir
}

// Trigger opens an incident for the given reason: it snapshots the span
// ring now and keeps capturing spans until the post-window closes.
// attrs is stored as given and must not be mutated afterwards. Triggers
// beyond the incident cap, and same-reason triggers landing inside an open
// incident's post-window, only bump counters.
func (f *FlightRecorder) Trigger(reason string, attrs map[string]any) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// Snapshot the pre-window while holding f.mu, so that every span is
	// captured exactly once: a concurrent publish either lands its ring
	// insert before this snapshot (captured here; its pending ObserveSpans
	// is deduplicated by Incident.capture) or after it (delivered through
	// ObserveSpans once the incident is registered). Taking the sink's lock
	// inside f.mu cannot deadlock — the sink never holds its own lock while
	// notifying observers, so no path acquires sink.mu → f.mu.
	spans := f.sink.Spans()
	now := f.sink.Now()
	f.finalizeLocked(now)
	for i, inc := range f.open {
		if inc.Reason == reason && now < f.closeAt[i] {
			inc.FollowUps++
			return
		}
	}
	if f.seq >= f.maxIncidents {
		return
	}
	inc := &Incident{
		ID:         f.seq,
		Reason:     reason,
		Time:       now,
		Attrs:      attrs,
		PostWindow: f.post,
		Spans:      spans,
	}
	f.seq++
	f.open = append(f.open, inc)
	f.closeAt = append(f.closeAt, now+f.post)
}

// ObserveSpans implements SpanObserver: every batch of published spans
// (delivered by the sink with no sink lock held) is absorbed by the open
// incidents, and incidents whose post-window has passed are written out.
func (f *FlightRecorder) ObserveSpans(recs []SpanRecord, now float64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// Expire first: a publish landing after an incident's post-window must
	// finalise it without being captured by it.
	f.finalizeLocked(now)
	for _, inc := range f.open {
		inc.capture(recs)
	}
}

// finalizeLocked writes out every open incident whose post-window closed.
// Caller holds f.mu.
func (f *FlightRecorder) finalizeLocked(now float64) {
	keep := f.open[:0]
	keepAt := f.closeAt[:0]
	for i, inc := range f.open {
		if now < f.closeAt[i] {
			keep = append(keep, inc)
			keepAt = append(keepAt, f.closeAt[i])
			continue
		}
		f.writeLocked(inc)
	}
	f.open = keep
	f.closeAt = keepAt
}

// writeLocked persists one incident file. Caller holds f.mu.
func (f *FlightRecorder) writeLocked(inc *Incident) {
	path := filepath.Join(f.dir, fmt.Sprintf("incident-%03d-%s.json", inc.ID, sanitizeReason(inc.Reason)))
	if err := WriteJSONFile(path, inc); err != nil {
		if f.err == nil {
			f.err = fmt.Errorf("obs: incident %d: %w", inc.ID, err)
		}
		return
	}
	f.written = append(f.written, path)
}

// WriteJSONFile creates path and writes v into it as indented JSON — the one
// writer behind every telemetry artifact (incident files, the run summary,
// the health and tsdb reports).
func WriteJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(v)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sanitizeReason maps a trigger reason to a filename-safe slug.
func sanitizeReason(reason string) string {
	out := make([]byte, 0, len(reason))
	for i := 0; i < len(reason); i++ {
		c := reason[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "incident"
	}
	return string(out)
}

// Close finalises every still-open incident regardless of its remaining
// post-window and reports the first write error.
func (f *FlightRecorder) Close() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, inc := range f.open {
		f.writeLocked(inc)
	}
	f.open = nil
	f.closeAt = nil
	return f.err
}

// Incidents returns the paths of every incident file written so far.
func (f *FlightRecorder) Incidents() []string {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.written...)
}
