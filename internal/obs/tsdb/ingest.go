package tsdb

import (
	"sync"

	"mvml/internal/obs"
)

// Span-derived series names.
const (
	SeriesRequests = "mv_tsdb_requests_total"
	SeriesErrors   = "mv_tsdb_errors_total"
	SeriesStage    = "mv_tsdb_stage_latency_seconds"
)

// trafficRoot reports whether kind is normal serving traffic when seen on a
// root span ("request" at a shard, "route" at the gateway).
func trafficRoot(kind string) bool { return kind == "request" || kind == "route" }

// Ingester aggregates a span stream into a Store: per-stage/per-shard
// latency histograms with exemplar links, and request and error rates. It
// implements obs.SpanObserver, so a store fed by a sink's sampled stream
// (SpanSink.AttachSampled) and one replayed from that sink's spans.jsonl see
// the exact same records. Its clock is the span end timestamps, never the
// wall.
type Ingester struct {
	store *Store

	mu      sync.Mutex
	shardOf map[uint64]string // trace → shard fallback for shard-less spans
	fifo    []uint64          // bounded eviction over shardOf
	next    int
}

// shardCache bounds the trace → shard fallback memory.
const shardCache = 4096

// NewIngester returns an ingester writing into store. The second parameter
// is ignored: it is kept only because the benchmark's probe still passes nil,
// and goes when that probe does (ROADMAP item 10).
func NewIngester(store *Store, _ any) *Ingester {
	return &Ingester{store: store,
		shardOf: make(map[uint64]string), fifo: make([]uint64, shardCache)}
}

// ObserveSpans ingests one published batch. Batches are whole traces in the
// live pipeline; Replay reconstructs the same batching from a JSONL export.
func (in *Ingester) ObserveSpans(recs []obs.SpanRecord, _ float64) {
	if in == nil || len(recs) == 0 {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
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
	t := rec.End
	shard := rec.AttrString("shard")
	if shard == "" {
		shard = in.shardOf[rec.Trace]
	}
	kv := []string{"kind", rec.Kind, "shard", shard}
	switch {
	case rec.Parent == 0 && trafficRoot(rec.Kind):
		in.store.Add(SeriesRequests, t, 1, kv...)
	case rec.Parent != 0:
		// Pipeline stage inside a trace. The version label (forwards carry
		// it) splits per-model-version latency without exploding the rest.
		if v := rec.AttrString("version"); v != "" {
			kv = append(kv, "version", v)
		}
	}
	// Every span, root or not, lands in its kind's latency histogram; a
	// lifecycle or event root (rejuvenation, scale, run_end, ...) is one
	// observation of its own kind.
	in.store.ObserveEx(SeriesStage, t, rec.Duration(), rec.Trace, kv...)
	if rec.Attrs != nil && rec.Attrs["error"] != nil {
		in.store.Add(SeriesErrors, t, 1, "kind", rec.Kind, "shard", shard)
	}
}

// Replay feeds a JSONL span export through the ingester with the live
// pipeline's batching reconstructed: the sink publishes whole traces as
// single batches, so runs of consecutive same-trace records are exactly the
// live batches (a late child merged into an adjacent run aggregates
// identically — per-record aggregation only consults the shared trace→shard
// cache).
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
