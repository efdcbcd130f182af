package main

import (
	"mvml/internal/nn"
)

// metricDef names one metric. The catalogue below is the single list the
// result file, the driver line, the README table and BENCHMARK.json are
// written from (TestBenchmarkJSONMatchesCatalogue pins the last one).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// Workload names, in run order.
const (
	wlSaturate = "shard_saturate"
	wlHTTP     = "shard_http"
	wlFleet    = "fleet_lifecycle"
	wlEval     = "paper_eval"
)

// End-to-end metrics. Every workload reports all seven. BENCHMARK.json carries
// the four the benchmark driver can hold to a relative bound on every
// workload; compare gates the other three with the bounds below.
const (
	mSetup         = "setup_s"
	mGoodput       = "goodput_rps"
	mP50           = "latency_p50_ms"
	mP95           = "latency_p95_ms"
	mCPU           = "cpu_s_per_kop"
	mFailedShare   = "failed_share"
	mDegradedShare = "degraded_share"
)

var endToEndDefs = []metricDef{
	{mSetup, "s", "lower"},
	{mGoodput, "op/s", "higher"},
	{mP50, "ms", "lower"},
	{mP95, "ms", "lower"},
	{mCPU, "s/kop", "lower"},
	{mFailedShare, "ratio", "lower"},
	{mDegradedShare, "ratio", "lower"},
}

// compareOnlyBounds are relative gates compare applies to metrics that
// BENCHMARK.json cannot carry. latency_p95_ms: the driver requires ten runs of
// the same code to spread less than the bound on every workload, and on
// shard_saturate, where every host stall delays all sixteen requests in
// flight, the p95 read 26 % higher in the host's slow minutes than in its quiet
// ones (p50: 10 %), so a ten-run set that holds both spreads past 0.25, the
// widest bound allowed. compare's "unresolved" verdict is made for that.
var compareOnlyBounds = map[string]float64{
	mP95: 0.25,
}

// inBenchmarkFile reports whether BENCHMARK.json lists the end-to-end metric.
func inBenchmarkFile(name string) bool {
	_, absolute := absoluteBounds[name]
	_, compareOnly := compareOnlyBounds[name]
	return !absolute && !compareOnly
}

// absoluteBounds are the gates of the two share metrics, which are expected
// to read 0 somewhere, where a relative bound means nothing: how far the new
// median may sit above the old one, as a difference, not a ratio.
var absoluteBounds = map[string]float64{
	mFailedShare:   0,
	mDegradedShare: 0.005,
}

// modelNames are the three served architectures in version order.
func modelNames() []string {
	var out []string
	for _, m := range nn.AllModels() {
		out = append(out, m.String())
	}
	return out
}

// perLayerDefs lists every per-layer metric in output order.
func perLayerDefs() []metricDef {
	d := []metricDef{
		// client: the generator itself.
		{"client.ops_attempted", "count", "higher"},
		{"client.ops_ok", "count", "higher"},
		{"client.ops_degraded", "count", "lower"},
		{"client.ops_rejected", "count", "lower"},
		{"client.ops_failed", "count", "lower"},
		{"client.ops_wrong", "count", "lower"},
		{"client.latency_p95_ms", "ms", "lower"},
		{"client.latency_p99_ms", "ms", "lower"},
		{"client.latency_max_ms", "ms", "lower"},
		{"client.sched_lag_p99_ms", "ms", "lower"},
		{"client.stall_max_ms", "ms", "lower"},
		// tensor and machine probes.
		{"tensor.gemm_packed_gflops", "GFLOP/s", "higher"},
		{"tensor.gemm_int8_gops", "GOP/s", "higher"},
		{"tensor.matmul_scalar_gflops", "GFLOP/s", "higher"},
		{"tensor.im2col_gbps", "GB/s", "higher"},
		{"tensor.pack_b_gbps", "GB/s", "higher"},
		{"machine.peak_mulps_gflops", "GFLOP/s", "higher"},
		{"machine.copy_gbps", "GB/s", "higher"},
		{"tensor.gemm_packed_peak_share", "ratio", "higher"},
	}
	for _, m := range modelNames() {
		d = append(d,
			metricDef{"nn.forward_ms." + m + ".b1", "ms", "lower"},
			metricDef{"nn.forward_ms." + m + ".b8", "ms", "lower"},
			metricDef{"nn.forward_ms." + m + ".b32", "ms", "lower"},
			metricDef{"nn.forward_int8_ms." + m + ".b8", "ms", "lower"},
		)
		for _, c := range layerCategories {
			d = append(d, metricDef{"nn.layer_share." + m + "." + c, "ratio", "lower"})
		}
		d = append(d,
			metricDef{"nn.predict_us." + m, "us", "lower"},
			metricDef{"nn.train_batch_ms." + m, "ms", "lower"},
			metricDef{"nn.accuracy." + m, "ratio", "higher"},
		)
	}
	d = append(d,
		metricDef{"nn.allocs_per_forward", "count", "lower"},
		// serve, read off the program's own spans in the traced run.
		metricDef{"serve.admission_us_p50", "us", "lower"},
		metricDef{"serve.queue_wait_ms_p50", "ms", "lower"},
		metricDef{"serve.queue_wait_ms_p95", "ms", "lower"},
		metricDef{"serve.batch_size_mean", "count", "higher"},
		metricDef{"serve.batches_per_s", "1/s", "lower"},
		metricDef{"serve.batch_ms_p50", "ms", "lower"},
	)
	for _, m := range modelNames() {
		d = append(d, metricDef{"serve.forward_ms_p50." + m, "ms", "lower"})
	}
	d = append(d,
		metricDef{"serve.gather_idle_ms_p50", "ms", "lower"},
		metricDef{"serve.vote_us_p50", "us", "lower"},
		metricDef{"serve.unattributed_share", "ratio", "lower"},
		metricDef{"serve.allocs_per_op", "count", "lower"},
		metricDef{"serve.live_heap_mb", "MB", "lower"},
		metricDef{"serve.peak_rss_mb", "MB", "lower"},
		metricDef{"serve.build_s", "s", "lower"},
		// serve lifecycle (fleet_lifecycle only).
		metricDef{"serve.compromise_ms", "ms", "lower"},
		metricDef{"serve.rejuvenate_ms_p50", "ms", "lower"},
		metricDef{"serve.reactive_recovery_ms", "ms", "lower"},
		metricDef{"serve.resize_ms", "ms", "lower"},
		metricDef{"serve.rejuvenations_total", "count", "higher"},
		// http (shard_http only).
		metricDef{"http.transport_us_p50", "us", "lower"},
		metricDef{"serve.http_codec_us_p50", "us", "lower"},
		metricDef{"serve.http_decode_us", "us", "lower"},
		metricDef{"serve.http_body_bytes", "count", "lower"},
		metricDef{"signs.render_us", "us", "lower"},
		// gateway (fleet_lifecycle only).
		metricDef{"gateway.route_us_p50", "us", "lower"},
		metricDef{"gateway.ring_lookup_ns", "ns", "lower"},
		metricDef{"gateway.plan_ns", "ns", "lower"},
		metricDef{"gateway.rerouted_share", "ratio", "lower"},
		metricDef{"gateway.failovers_total", "count", "lower"},
		metricDef{"gateway.retries_total", "count", "lower"},
		metricDef{"gateway.shed_total", "count", "lower"},
		metricDef{"gateway.owner_share.shard-0", "ratio", "higher"},
		// core.
		metricDef{"core.vote_ns", "ns", "lower"},
		metricDef{"core.voted_accuracy", "ratio", "higher"},
		metricDef{"core.masked_share", "ratio", "higher"},
		// obs / health / tsdb.
		metricDef{"obs.traced_cpu_overhead_pct", "pct", "lower"},
		metricDef{"obs.traced_goodput_delta_pct", "pct", "higher"},
		metricDef{"obs.spans_per_op", "count", "lower"},
		metricDef{"obs.dropped_spans_total", "count", "lower"},
		metricDef{"obs.span_record_ns", "ns", "lower"},
		metricDef{"health.observe_ns_per_span", "ns", "lower"},
		metricDef{"tsdb.ingest_ns_per_span", "ns", "lower"},
		metricDef{"health.transitions_total", "count", "lower"},
		// offline layers (paper_eval only).
		metricDef{"experiments.train_s", "s", "lower"},
		metricDef{"signs.generate_s", "s", "lower"},
		metricDef{"faultinject.campaign_trial_ms", "ms", "lower"},
		metricDef{"faultinject.calibrate_ms", "ms", "lower"},
		metricDef{"petri.transient_reps_per_s", "1/s", "higher"},
		metricDef{"parallel.speedup_w2", "ratio", "higher"},
		metricDef{"drivesim.episodes_per_s", "1/s", "higher"},
		metricDef{"scenario.evaluate_ms", "ms", "lower"},
	)
	return d
}

// layerCategories are the buckets nn.layer_share.* splits a forward pass
// into; "other" is centring, flatten, dropout and the residual add.
var layerCategories = []string{"conv", "pool", "relu", "dense", "other"}
