package serve

import (
	"time"

	"mvml/internal/core"
	"mvml/internal/nn"
	"mvml/internal/tensor"
)

// batchLoop is the micro-batching scheduler. It is work-conserving: a batch
// closes as soon as the queue is empty, so batching comes from backpressure
// alone — requests that arrive while a batch is in flight form the next one,
// and a lone request is served at once. Each batch is stacked into one tensor,
// fanned out to every version's pool, gathered until the earliest
// request deadline, and voted per sample.
func (s *Server) batchLoop() {
	defer s.stopped.Done()
	// One goroutine, one batch in flight: the request and image slices are
	// reused across batches. The stacked tensor and job.out are NOT recycled —
	// a forward that misses the gather deadline may still be reading the one
	// and sending on the other after dispatch has returned.
	batch := make([]*request, 0, s.cfg.MaxBatch)
	images := make([]*tensor.Tensor, 0, s.cfg.MaxBatch)
	for {
		if gate := s.cfg.batchGate; gate != nil {
			select {
			case <-gate:
			case <-s.stop:
				return
			}
		}
		var first *request
		select {
		case first = <-s.queue:
		case <-s.stop:
			return
		}
		batch = s.collect(append(batch[:0], first))
		s.m.queueDepth.Set(float64(s.depth.Add(-int64(len(batch)))))
		s.m.batchSize.Observe(float64(len(batch)))
		s.m.batches.Inc()
		images = images[:0]
		for _, req := range batch {
			images = append(images, req.image)
		}
		s.dispatch(batch, images)
	}
}

// collect fills batch (holding its first request) up to MaxBatch with
// whatever is already queued, without ever blocking.
func (s *Server) collect(batch []*request) []*request {
	for len(batch) < s.cfg.MaxBatch {
		select {
		case req := <-s.queue:
			batch = append(batch, req)
		default:
			return batch
		}
	}
	return batch
}

// dispatch runs one batch end to end: stack → fan out → gather → vote.
func (s *Server) dispatch(batch []*request, images []*tensor.Tensor) {
	sink := s.m.spans // nil when tracing is disabled
	tCollected := sink.Now()
	stacked, err := nn.Stack(images)
	if err != nil {
		s.fail(batch, err)
		return
	}

	job := batchJob{batch: stacked, out: make(chan versionAnswer, len(s.pools))}
	submitted := 0
	for _, p := range s.pools {
		if p.trySubmit(job) {
			submitted++
		}
	}

	// Gather until every submitted version answered or the earliest request
	// deadline passes; late answers land in the buffered channel and are
	// discarded, so no forward ever blocks.
	preds := make([][]int, len(s.pools))
	var fwd []versionAnswer // successful answers with forward timings
	if sink != nil {
		fwd = make([]versionAnswer, 0, submitted)
	}
	deadline := batch[0].deadline
	for _, req := range batch[1:] {
		if req.deadline.Before(deadline) {
			deadline = req.deadline
		}
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
gather:
	for got := 0; got < submitted; {
		select {
		case ans := <-job.out:
			got++
			if ans.err == nil {
				preds[ans.version] = ans.preds
				if sink != nil {
					fwd = append(fwd, ans)
				}
			}
		case <-timer.C:
			break gather
		}
	}

	if sink != nil {
		// Back-fill the batch-level stages into every member request's
		// trace: the wall intervals are shared (the work happened once for
		// the whole batch) but each trace gets its own records, so a single
		// trace id reconstructs the full waterfall.
		tGathered := sink.Now()
		// queue_depth samples the admission backlog once per batch — the
		// stream the health engine's change-point detector watches.
		battrs := map[string]any{
			"batch_size":  len(batch),
			"queue_depth": int(s.depth.Load()),
		}
		fattrs := make([]map[string]any, len(fwd))
		for i, ans := range fwd {
			fattrs[i] = map[string]any{"version": s.pools[ans.version].name}
		}
		if s.m.shard != "" {
			battrs["shard"] = s.m.shard
			for _, fa := range fattrs {
				fa["shard"] = s.m.shard
			}
		}
		for _, req := range batch {
			if req.span == nil {
				continue
			}
			req.span.Interval("queue_wait", req.tq, tCollected, s.m.shardAttrs)
			bid := req.span.Interval("batch", tCollected, tGathered, battrs)
			for i, ans := range fwd {
				req.span.IntervalUnder(bid, "forward", ans.start, ans.end, fattrs[i])
			}
		}
	}
	s.vote(batch, preds)
	s.maybeReact()
}

// vote runs the majority voter per sample over the versions that answered,
// degrading gracefully: a safe skip falls back to the first available
// proposal (in fixed version order, so responses are deterministic), and
// only a total absence of proposals fails the request.
func (s *Server) vote(batch []*request, preds [][]int) {
	sink := s.m.spans
	proposals := make([]core.Proposal[int], 0, len(s.pools))
	for i, req := range batch {
		tVote := sink.Now()
		proposals = proposals[:0]
		for v, p := range preds {
			if p != nil {
				proposals = append(proposals, core.Proposal[int]{
					Module: s.pools[v].name,
					Value:  p[i],
				})
			}
		}
		dec := s.voter.Vote(proposals)

		var res Result
		switch {
		case !dec.Skipped:
			res = Result{
				Class:     dec.Value,
				Agreeing:  dec.Agreeing,
				Proposals: dec.Proposals,
			}
			if dec.Proposals < len(s.pools) {
				res.Degraded = true
				res.Reason = "partial ensemble"
			}
		case len(proposals) > 0:
			// Graceful degradation: the voter safely skipped (divergence),
			// but an answer is still owed — serve the first proposal and
			// tag it so the client can weigh its trust.
			res = Result{
				Class:     proposals[0].Value,
				Degraded:  true,
				Reason:    "voter skipped: " + dec.Reason,
				Agreeing:  1,
				Proposals: dec.Proposals,
			}
		default:
			res = Result{Err: ErrNoProposals, Reason: dec.Reason}
		}

		if req.span != nil {
			// voters/diverged give the health engine the per-round
			// disagreement picture: which versions answered, and which of
			// them contradicted the voted output (the online α estimator's
			// simultaneous-error signal).
			vattrs := map[string]any{
				"agreeing": dec.Agreeing, "proposals": dec.Proposals,
			}
			if s.m.shard != "" {
				vattrs["shard"] = s.m.shard
			}
			if dec.Skipped {
				vattrs["skipped"] = true
			}
			voters := make([]string, 0, len(s.pools))
			var diverged []string
			for v, p := range preds {
				if p == nil {
					continue
				}
				voters = append(voters, s.pools[v].name)
				if !dec.Skipped && p[i] != dec.Value {
					diverged = append(diverged, s.pools[v].name)
				}
			}
			vattrs["voters"] = voters
			if len(diverged) > 0 {
				vattrs["diverged"] = diverged
			}
			req.span.Interval("vote", tVote, sink.Now(), vattrs)
		}

		// Feed the reactive trigger: versions are judged against the voted
		// output only when a real majority existed.
		if !dec.Skipped {
			for v, p := range preds {
				if p != nil {
					s.pools[v].observe(p[i] != dec.Value)
				}
			}
		}

		s.finish(req, res)
	}
}

// finish completes one request: metrics, then exactly one send on done, then
// the request's trace goes out (the batcher still owns the span — the waiting
// client only ever reads the done channel).
func (s *Server) finish(req *request, res Result) {
	s.m.requests.Inc()
	if res.Err != nil {
		s.m.failed.Inc()
	} else {
		if res.Degraded {
			s.m.degraded.Inc()
		}
		s.m.latency.Observe(time.Since(req.enqueued).Seconds())
	}
	if req.span == nil {
		req.done <- res
		return
	}
	sink := s.m.spans
	tReply := sink.Now()
	req.done <- res
	req.span.Interval("reply", tReply, sink.Now(), s.m.shardAttrs)
	req.span.SetAttr("class", res.Class)
	if res.Degraded {
		req.span.SetAttr("degraded", true)
	}
	if res.Err != nil {
		req.span.SetAttr("error", res.Err.Error())
	}
	req.span.End()
}

// fail completes a whole batch with one error (stacking failure).
func (s *Server) fail(batch []*request, err error) {
	for _, req := range batch {
		s.finish(req, Result{Err: err})
	}
}
