package tsdb

import (
	"sync"

	"mvml/internal/obs"
)

// Span-derived series names. The mv_tsdb_ prefix marks content that came
// through the store (as opposed to the live registry's mvserve_*/mvgateway_*
// families scraped alongside).
const (
	SeriesRequests  = "mv_tsdb_requests_total"
	SeriesErrors    = "mv_tsdb_errors_total"
	SeriesDegraded  = "mv_tsdb_degraded_total"
	SeriesLifecycle = "mv_tsdb_lifecycle_total"
	SeriesStage     = "mv_tsdb_stage_latency_seconds"
	SeriesQueue     = "mv_tsdb_queue_depth"
	SeriesBatch     = "mv_tsdb_batch_size"
)

// rootKind reports whether kind is normal serving traffic when seen on a
// root span ("request" at a shard, "route" at the gateway).
func trafficRoot(kind string) bool { return kind == "request" || kind == "route" }

// Ingester aggregates a span stream into a Store: per-stage/per-shard
// latency histograms with exemplar links, request/error/degraded rates,
// queue-depth and batch-size streams, and lifecycle counts. It implements
// obs.SpanObserver and is meant to be attached with SpanSink.AttachSampled,
// so a store fed live and one replayed from the retained spans.jsonl see
// the exact same records.
//
// The ingester's clock advances only on span end timestamps — never the
// wall — which is what makes live == replay hold bit-for-bit. After each
// batch it advances the attached rule engine (if any) to the newest span
// time seen.
type Ingester struct {
	store *Store
	rules *Rules // optional; advanced on the span clock

	mu      sync.Mutex
	shardOf map[uint64]string // trace → shard fallback for shard-less spans
	fifo    []uint64          // bounded eviction over shardOf
	next    int
	maxT    float64
}

// shardCache bounds the trace → shard fallback memory.
const shardCache = 4096

// NewIngester returns an ingester writing into store and advancing rules
// (which may be nil) on the span clock.
func NewIngester(store *Store, rules *Rules) *Ingester {
	return &Ingester{store: store, rules: rules,
		shardOf: make(map[uint64]string), fifo: make([]uint64, shardCache)}
}

// ObserveSpans ingests one published batch. Batches are whole traces in the
// live pipeline; Replay reconstructs the same batching from a JSONL export.
func (in *Ingester) ObserveSpans(recs []obs.SpanRecord, _ float64) {
	if in == nil || len(recs) == 0 {
		return
	}
	in.mu.Lock()
	// Pre-scan: a trace's shard is announced by whichever spans carry the
	// attribute (the root always does in serve/gateway); remember it so
	// shard-less members of the same trace — including late children in a
	// later batch — are attributed correctly.
	for i := range recs {
		if sh := recs[i].AttrString("shard"); sh != "" {
			in.remember(recs[i].Trace, sh)
		}
	}
	for i := range recs {
		in.ingest(&recs[i])
	}
	maxT := in.maxT
	in.mu.Unlock()
	in.rules.Advance(maxT)
}

// remember caches trace → shard with FIFO eviction. Caller holds in.mu.
func (in *Ingester) remember(trace uint64, shard string) {
	if _, ok := in.shardOf[trace]; ok {
		return
	}
	if old := in.fifo[in.next]; old != 0 {
		delete(in.shardOf, old)
	}
	in.fifo[in.next] = trace
	in.next = (in.next + 1) % len(in.fifo)
	in.shardOf[trace] = shard
}

// ingest aggregates one record. Caller holds in.mu.
func (in *Ingester) ingest(rec *obs.SpanRecord) {
	if rec.End > in.maxT {
		in.maxT = rec.End
	}
	t := rec.End
	shard := rec.AttrString("shard")
	if shard == "" {
		shard = in.shardOf[rec.Trace]
	}

	isRoot := rec.Parent == 0
	switch {
	case isRoot && trafficRoot(rec.Kind):
		in.store.Add(SeriesRequests, t, 1, "kind", rec.Kind, "shard", shard)
		in.store.ObserveEx(SeriesStage, t, rec.Duration(), rec.Trace,
			"kind", rec.Kind, "shard", shard)
		if rec.AttrBool("degraded") {
			in.store.Add(SeriesDegraded, t, 1, "shard", shard)
		}
	case isRoot:
		// Lifecycle / simulation roots: rejuvenation, drain, resize, scale,
		// shed, ... — rare, always retained by the sampler, each one a
		// timeline event.
		in.store.Add(SeriesLifecycle, t, 1, "kind", rec.Kind)
		in.store.ObserveEx(SeriesStage, t, rec.Duration(), rec.Trace,
			"kind", rec.Kind, "shard", shard)
	default:
		// Pipeline stage inside a trace. The version label (forwards carry
		// it) splits per-model-version latency without exploding the rest.
		kv := []string{"kind", rec.Kind, "shard", shard}
		if v := rec.AttrString("version"); v != "" {
			kv = append(kv, "version", v)
		}
		in.store.ObserveEx(SeriesStage, t, rec.Duration(), rec.Trace, kv...)
	}

	if rec.Attrs != nil {
		if rec.Attrs["error"] != nil {
			in.store.Add(SeriesErrors, t, 1, "kind", rec.Kind, "shard", shard)
		}
		if rec.Kind == "batch" {
			if d, ok := rec.AttrFloat("queue_depth"); ok {
				in.store.Set(SeriesQueue, t, d, "shard", shard)
			}
			if b, ok := rec.AttrFloat("batch_size"); ok {
				in.store.Observe(SeriesBatch, t, b, "shard", shard)
			}
		}
	}
}

// MaxT returns the newest span end time ingested so far.
func (in *Ingester) MaxT() float64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.maxT
}

// Replay feeds a JSONL span export through the ingester with the live
// pipeline's batching reconstructed: the sink publishes whole traces as
// single batches, so runs of consecutive same-trace records are exactly the
// live batches (a late child merged into an adjacent run aggregates
// identically — per-record aggregation only consults the shared trace→shard
// cache). After the final batch the attached rule engine has advanced to the
// last span time, so the recorded rule series match the live run too.
func Replay(recs []obs.SpanRecord, in *Ingester) {
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && recs[j].Trace == recs[i].Trace {
			j++
		}
		in.ObserveSpans(recs[i:j], recs[j-1].End)
		i = j
	}
}
