package serve

import (
	"mvml/internal/nn"
	"mvml/internal/obs"
)

// metrics bundles the serving subsystem's telemetry handles, resolved once
// at startup. With a nil runtime every handle is a nil no-op, so the serving
// hot path pays only nil checks — instrumentation never changes responses.
type metrics struct {
	queueDepth *obs.Gauge
	batchSize  *obs.Histogram
	latency    *obs.Histogram
	requests   *obs.Counter
	degraded   *obs.Counter
	rejected   *obs.Counter
	failed     *obs.Counter
	batches    *obs.Counter

	reg     *obs.Registry
	spans   *obs.SpanSink
	profile bool

	// shard is the server's shard label ("" standalone); shardAttrs is a
	// shared read-only attrs map carrying just that label, reused for stages
	// that otherwise have no attributes (span attrs must not be mutated after
	// emission, so sharing one map is safe).
	shard      string
	shardAttrs map[string]any
}

func newMetrics(rt *obs.Runtime, profile bool, shard string) *metrics {
	m := &metrics{shard: shard}
	if shard != "" {
		m.shardAttrs = map[string]any{"shard": shard}
	}
	if rt != nil {
		m.reg = rt.Metrics()
		m.spans = rt.Spans()
		m.profile = profile
	}
	r := m.reg // nil registry hands out nil (no-op) handles
	r.Help("mvserve_queue_depth", "Requests waiting in the admission queue.")
	r.Help("mvserve_batch_size", "Requests per dispatched micro-batch.")
	r.Help("mvserve_e2e_latency_seconds", "End-to-end latency of answered requests.")
	r.Help("mvserve_requests_total", "Requests that reached a terminal outcome (answered or failed).")
	r.Help("mvserve_degraded_total", "Answers served without a full healthy majority.")
	r.Help("mvserve_rejected_total", "Requests shed at admission because the queue was full.")
	r.Help("mvserve_failed_total", "Requests that could not be answered at all.")
	r.Help("mvserve_batches_total", "Micro-batches dispatched to the version pools.")
	r.Help("mvserve_rejuvenations_total", "Completed rejuvenations by trigger kind.")
	r.Help("mvserve_divergence_total", "Decided requests in which a version disagreed with the voted output.")
	if m.profile {
		r.Help("mvserve_layer_seconds", "Wall time of one layer dispatch on the batched inference path.")
		r.Help("mvserve_gemm_dispatch_total", "GEMM kernels issued by the batched inference path.")
		r.Help("mvserve_gemm_bytes_total", "Bytes moved by inference GEMMs (operands plus outputs, float32).")
	}

	m.queueDepth = r.Gauge("mvserve_queue_depth")
	m.batchSize = r.Histogram("mvserve_batch_size", obs.LinearBuckets(1, 1, 16))
	m.latency = r.Histogram("mvserve_e2e_latency_seconds", obs.LatencyBuckets())
	m.requests = r.Counter("mvserve_requests_total")
	m.degraded = r.Counter("mvserve_degraded_total")
	m.rejected = r.Counter("mvserve_rejected_total")
	m.failed = r.Counter("mvserve_failed_total")
	m.batches = r.Counter("mvserve_batches_total")
	return m
}

// rejuvenations resolves the per-trigger-kind counter.
func (m *metrics) rejuvenations(kind string) *obs.Counter {
	return m.reg.Counter("mvserve_rejuvenations_total", "kind", kind)
}

// divergence resolves the per-version divergence counter.
func (m *metrics) divergence(version string) *obs.Counter {
	return m.reg.Counter("mvserve_divergence_total", "version", version)
}

// layerProfiler adapts the obs registry to nn.ForwardProfiler for one
// version. Each arena gets its own instance (series handles are cached per
// layer without locking, and one forward at a time holds an arena), while the
// underlying counters and histograms are shared and concurrency-safe.
type layerProfiler struct {
	m       *metrics
	version string
	seconds map[string]*obs.Histogram
	gemms   map[string]*obs.Counter
	bytes   map[string]*obs.Counter
}

// layerProfiler returns a fresh per-arena profiler for the named version,
// or nil when layer profiling is disabled.
func (m *metrics) layerProfiler(version string) nn.ForwardProfiler {
	if m.reg == nil || !m.profile {
		return nil
	}
	return &layerProfiler{
		m:       m,
		version: version,
		seconds: make(map[string]*obs.Histogram),
		gemms:   make(map[string]*obs.Counter),
		bytes:   make(map[string]*obs.Counter),
	}
}

// ObserveLayer implements nn.ForwardProfiler.
func (lp *layerProfiler) ObserveLayer(layer string, seconds float64, batch int) {
	h := lp.seconds[layer]
	if h == nil {
		h = lp.m.reg.Histogram("mvserve_layer_seconds", obs.LatencyBuckets(),
			"version", lp.version, "layer", layer)
		lp.seconds[layer] = h
	}
	h.Observe(seconds)
}

// ObserveGemm implements nn.ForwardProfiler. The byte volume counts both
// operands and the output at float32 width: 4·(m·k + k·n + m·n).
func (lp *layerProfiler) ObserveGemm(layer string, m, n, k int) {
	c := lp.gemms[layer]
	if c == nil {
		c = lp.m.reg.Counter("mvserve_gemm_dispatch_total", "version", lp.version, "layer", layer)
		lp.gemms[layer] = c
	}
	c.Inc()
	b := lp.bytes[layer]
	if b == nil {
		b = lp.m.reg.Counter("mvserve_gemm_bytes_total", "version", lp.version, "layer", layer)
		lp.bytes[layer] = b
	}
	b.Add(uint64(4 * (m*k + k*n + m*n)))
}
