package obs

import (
	"math"
	"sync"
)

// SampleConfig parameterises tail-based trace sampling. The zero value keeps
// everything (Rate 0 with no other criteria would retain only error/slow/
// lifecycle traces; use Rate >= 1 for record-everything).
type SampleConfig struct {
	// Rate is the fraction of *normal* request traces to retain, in [0,1].
	// Error, degraded, slow and non-request (lifecycle) traces are always
	// retained regardless of Rate; >= 1 retains every trace.
	Rate float64
	// Seed drives the deterministic retain/drop hash. Two samplers with the
	// same seed make identical decisions for the same trace ids, no matter
	// how many goroutines publish spans — the decision is a pure function of
	// (seed, trace id), never of scheduling.
	Seed uint64
}

// DefaultSlowSeconds is the root-span duration at or above which a request
// trace is always retained (the tail of the latency distribution is the
// interesting part), matched to the health engine's default per-request
// latency objective.
const DefaultSlowSeconds = 0.25

// decisionCache bounds the trace-id → decision memory that routes
// late-published child spans the same way as their root batch.
const decisionCache = 8192

// Sampler makes tail-based retention decisions over whole traces: a span
// batch is judged once its root is visible (SpanSink publishes a complete
// trace in one batch), so the decision can consider the outcome — errors,
// degradation, end-to-end latency — rather than guessing at the head.
//
// Decisions are deterministic: every criterion is a pure function of the
// trace's content and the sampler's seed, so the retained-trace set for a
// given span stream is identical at any worker count. A nil *Sampler
// retains everything.
type Sampler struct {
	cfg    SampleConfig
	thresh uint64 // retain when hash < thresh

	mu        sync.Mutex
	decisions map[uint64]bool
	order     []uint64 // FIFO eviction ring over decisions
	next      int

	kept       uint64
	sampledOut uint64

	keptC    *Counter // optional registry counters
	droppedC *Counter
}

// NewSampler builds a sampler from cfg.
func NewSampler(cfg SampleConfig) *Sampler {
	s := &Sampler{
		cfg:       cfg,
		decisions: make(map[uint64]bool),
		order:     make([]uint64, decisionCache),
	}
	switch {
	case cfg.Rate >= 1:
		s.thresh = math.MaxUint64
	case cfg.Rate <= 0:
		s.thresh = 0
	default:
		s.thresh = uint64(cfg.Rate * float64(math.MaxUint64))
	}
	return s
}

// SetCounters attaches registry counters for retained and sampled-out
// traces (either may be nil).
func (s *Sampler) SetCounters(kept, sampledOut *Counter) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.keptC, s.droppedC = kept, sampledOut
	s.mu.Unlock()
}

// Stats returns how many traces were retained and sampled out so far.
func (s *Sampler) Stats() (kept, sampledOut uint64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kept, s.sampledOut
}

// Rate returns the configured normal-traffic retention rate (1 for a nil
// sampler: everything is kept).
func (s *Sampler) Rate() float64 {
	if s == nil {
		return 1
	}
	return s.cfg.Rate
}

// splitmix64 is the finaliser the retain/drop hash runs the trace id
// through; its avalanche means consecutive ids land uniformly in [0, 2^64).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashKeep is the deterministic coin flip for normal traffic.
func (s *Sampler) hashKeep(trace uint64) bool {
	return splitmix64(s.cfg.Seed^(trace*0x9e3779b97f4a7c15)) < s.thresh
}

// judge computes the retention decision for one trace from the spans at
// hand. Caller holds s.mu.
func (s *Sampler) judge(trace uint64, recs []SpanRecord) bool {
	var root *SpanRecord
	for i := range recs {
		r := &recs[i]
		if r.Trace != trace {
			continue
		}
		if r.Attrs != nil {
			if r.Attrs["error"] != nil {
				return true
			}
			if b, ok := r.Attrs["degraded"].(bool); ok && b {
				return true
			}
		}
		if r.Parent == 0 {
			root = r
		}
	}
	if root != nil {
		// Roots other than serving traffic ("request" at a shard, "route" at
		// the gateway) are lifecycle or simulation traces (rejuvenation,
		// drain, resize, scale, shed, ...): always retained — they are rare
		// and every one matters to an incident timeline.
		if root.Kind != "request" && root.Kind != "route" {
			return true
		}
		if root.Duration() >= DefaultSlowSeconds {
			return true
		}
	}
	return s.hashKeep(trace)
}

// remember caches one decision, evicting FIFO beyond the cache bound.
// Caller holds s.mu.
func (s *Sampler) remember(trace uint64, keep bool) {
	if old := s.order[s.next]; old != 0 {
		delete(s.decisions, old)
	}
	s.order[s.next] = trace
	s.next = (s.next + 1) % len(s.order)
	s.decisions[trace] = keep
	if keep {
		s.kept++
		s.keptC.Inc()
	} else {
		s.sampledOut++
		s.droppedC.Inc()
	}
}

// Retain returns the subset of recs belonging to retained traces, preserving
// order. A batch may span multiple traces; each trace is judged once and the
// decision is remembered so late-published children follow their root. A nil
// sampler retains everything.
func (s *Sampler) Retain(recs []SpanRecord) []SpanRecord {
	if s == nil || len(recs) == 0 {
		return recs
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Fast path: the whole batch is one trace (how SpanSink publishes).
	single := true
	for i := 1; i < len(recs); i++ {
		if recs[i].Trace != recs[0].Trace {
			single = false
			break
		}
	}
	if single {
		if s.keepLocked(recs[0].Trace, recs) {
			return recs
		}
		return nil
	}
	out := recs[:0:0]
	for i := range recs {
		if s.keepLocked(recs[i].Trace, recs) {
			out = append(out, recs[i])
		}
	}
	return out
}

// Decision reports the cached decision for a trace id.
func (s *Sampler) Decision(trace uint64) (keep, known bool) {
	if s == nil {
		return true, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	keep, known = s.decisions[trace]
	return keep, known
}

// keepLocked resolves (caching if new) one trace's decision. Caller holds
// s.mu.
func (s *Sampler) keepLocked(trace uint64, recs []SpanRecord) bool {
	if keep, ok := s.decisions[trace]; ok {
		return keep
	}
	keep := s.judge(trace, recs)
	s.remember(trace, keep)
	return keep
}
