package tsdb

import "mvml/internal/obs"

// traceSpec derives one synthetic request trace's shape from its index,
// with no randomness: every ~11th trace is slow, every ~17th errors, and
// trace 60 is a rejuvenation lifecycle event.
func traceSpec(i int) (dur float64, err bool, kind string) {
	kind = "request"
	dur = 0.002 + float64(i%7)*0.003
	if i%11 == 3 {
		dur = 0.4 + float64(i%5)*0.1
	}
	if i%17 == 5 {
		err = true
	}
	if i == 60 {
		kind = "rejuvenation"
		dur = 0.05
	}
	return
}

// buildTrace assembles the records of synthetic trace i as the live
// pipeline would publish them: children first, root last, ids pre-assigned
// so the stream is identical no matter which goroutine emits it.
func buildTrace(i int) []obs.SpanRecord {
	trace := uint64(1 + i)
	base := uint64(1000 + 10*i)
	start := 0.05 * float64(i)
	dur, errAttr, kind := traceSpec(i)
	shard := "shard-" + string(rune('a'+i%2))
	if kind != "request" {
		return []obs.SpanRecord{{
			Trace: trace, ID: base, Kind: kind, Start: start, End: start + dur,
			Attrs: map[string]any{"version": "v0", "kind": "reactive"},
		}}
	}
	attrs := map[string]any{"shard": shard}
	root := obs.SpanRecord{Trace: trace, ID: base, Kind: "request",
		Start: start, End: start + dur, Attrs: attrs}
	if errAttr {
		attrs["error"] = "deadline"
	}
	if i%13 == 2 {
		attrs["degraded"] = true
	}
	recs := []obs.SpanRecord{
		{Trace: trace, ID: base + 1, Parent: base, Kind: "queue_wait",
			Start: start, End: start + dur*0.2, Attrs: map[string]any{"shard": shard}},
		{Trace: trace, ID: base + 2, Parent: base, Kind: "batch",
			Start: start + dur*0.2, End: start + dur*0.8,
			Attrs: map[string]any{"shard": shard, "batch_size": 4, "queue_depth": i % 9}},
		{Trace: trace, ID: base + 3, Parent: base + 2, Kind: "forward",
			Start: start + dur*0.2, End: start + dur*0.7,
			Attrs: map[string]any{"shard": shard, "version": "v" + string(rune('0'+i%3))}},
		{Trace: trace, ID: base + 4, Parent: base, Kind: "vote",
			Start: start + dur*0.8, End: start + dur*0.9,
			Attrs: map[string]any{"shard": shard, "agreeing": 3, "proposals": 3}},
		root,
	}
	return recs
}

// demoSpans returns the full synthetic stream (120 traces) in publish order.
func demoSpans() []obs.SpanRecord {
	var out []obs.SpanRecord
	for i := 0; i < 120; i++ {
		out = append(out, buildTrace(i)...)
	}
	return out
}
