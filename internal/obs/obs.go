// Package obs is the repository's observability substrate: a
// concurrency-safe metrics registry (atomic counters, gauges and streaming
// histograms with quantile estimation), a span sink backed by a bounded ring
// buffer with a JSONL exporter — spans are the one event primitive: an
// instant is a zero-duration span — and two exposition paths: Prometheus
// text format over net/http and an end-of-run JSON summary.
//
// The package is pure stdlib and designed around two guarantees the serving
// runtime (serve, gateway and the binaries that run them) depends on:
//
//   - Nil no-op: every handle (*Registry, *Counter, *Gauge, *Histogram,
//     *SpanSink, *Runtime) treats a nil receiver as "telemetry disabled" and
//     does nothing, allocating nothing. Instrumented code paths therefore
//     need no feature flags — an uninstrumented run passes nil handles and
//     pays only a predictable nil check.
//
//   - Determinism: no function in this package consumes xrand draws or any
//     other source of the program's randomness, so attaching telemetry never
//     perturbs a run's decision sequence. (Latency observations read the
//     wall clock, which affects only the recorded values, never control
//     flow.)
package obs

import (
	"encoding/json"
	"os"
)

// Runtime bundles a metrics registry and a span sink — the pair every
// instrumented component accepts. A nil *Runtime is valid and yields nil
// (no-op) handles, so callers can thread cfg.Obs.Metrics()/cfg.Obs.Spans()
// unconditionally.
type Runtime struct {
	reg   *Registry
	spans *SpanSink
}

// DefaultTraceCapacity is the ring-buffer size used when NewRuntime is
// called with a non-positive capacity.
const DefaultTraceCapacity = 8192

// MetricDroppedSpans names the ring-buffer drop counter every Runtime
// registers: silent telemetry loss is itself a telemetry signal.
const MetricDroppedSpans = "mv_obs_dropped_spans_total"

// NewRuntime returns a Runtime with a fresh registry and a span sink holding
// up to traceCapacity records (DefaultTraceCapacity when <= 0). Ring-buffer
// evictions are mirrored into mv_obs_dropped_spans_total so data loss is
// never silent.
func NewRuntime(traceCapacity int) *Runtime {
	if traceCapacity <= 0 {
		traceCapacity = DefaultTraceCapacity
	}
	r := &Runtime{
		reg:   NewRegistry(),
		spans: NewSpanSink(traceCapacity),
	}
	r.reg.Help(MetricDroppedSpans, "Spans evicted from the span ring buffer before being read.")
	r.spans.SetDropCounter(r.reg.Counter(MetricDroppedSpans))
	return r
}

// Metrics returns the registry, or nil for a nil Runtime.
func (r *Runtime) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Spans returns the span sink, or nil for a nil Runtime.
func (r *Runtime) Spans() *SpanSink {
	if r == nil {
		return nil
	}
	return r.spans
}

// WriteJSONFile creates path and writes v into it as indented JSON — the
// writer behind the run summary.
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
