package gateway

import "mvml/internal/obs"

// gwMetrics bundles the gateway's telemetry handles. As in serve, a nil
// runtime hands out nil no-op handles, so the routing hot path never branches
// on instrumentation.
type gwMetrics struct {
	routed    *obs.Counter   // requests answered by their primary shard
	rerouted  *obs.Counter   // plans that skipped an unhealthy/draining owner
	failovers *obs.Counter   // attempts redirected to a ring successor
	retries   *obs.Counter   // retry attempts spent from client budgets
	shed      *obs.Counter   // requests 429'd at the gateway front door
	noBudget  *obs.Counter   // failovers refused because the budget was dry
	failed    *obs.Counter   // requests that exhausted every candidate shard
	inflight  *obs.Gauge     // requests currently inside the gateway
	shards    *obs.Gauge     // shards on the ring
	attempts  *obs.Histogram // attempts per answered request

	spans *obs.SpanSink
}

func newGwMetrics(rt *obs.Runtime) *gwMetrics {
	m := &gwMetrics{}
	var r *obs.Registry
	if rt != nil {
		r = rt.Metrics()
		m.spans = rt.Spans()
	}
	r.Help("mv_gateway_routed_total", "Requests answered by their primary (hash-owner) shard.")
	r.Help("mv_gateway_rerouted_total", "Requests whose plan skipped an unhealthy or draining hash owner.")
	r.Help("mv_gateway_failovers_total", "Attempts redirected from an unhealthy or draining shard to a ring successor.")
	r.Help("mv_gateway_retries_total", "Retry attempts spent from per-client retry budgets.")
	r.Help("mv_gateway_shed_total", "Requests rejected at the gateway with 429 backpressure.")
	r.Help("mv_gateway_retry_budget_exhausted_total", "Failovers refused because the client's retry budget was empty.")
	r.Help("mv_gateway_failed_total", "Requests that exhausted every candidate shard.")
	r.Help("mv_gateway_inflight", "Requests currently being routed by the gateway.")
	r.Help("mv_gateway_shards", "Shards currently on the hash ring.")
	r.Help("mv_gateway_attempts", "Shard attempts per answered request.")

	m.routed = r.Counter("mv_gateway_routed_total")
	m.rerouted = r.Counter("mv_gateway_rerouted_total")
	m.failovers = r.Counter("mv_gateway_failovers_total")
	m.retries = r.Counter("mv_gateway_retries_total")
	m.shed = r.Counter("mv_gateway_shed_total")
	m.noBudget = r.Counter("mv_gateway_retry_budget_exhausted_total")
	m.failed = r.Counter("mv_gateway_failed_total")
	m.inflight = r.Gauge("mv_gateway_inflight")
	m.shards = r.Gauge("mv_gateway_shards")
	m.attempts = r.Histogram("mv_gateway_attempts", obs.LinearBuckets(1, 1, 8))
	return m
}
