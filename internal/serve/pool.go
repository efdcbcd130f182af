package serve

import (
	"sync"
	"sync/atomic"

	"mvml/internal/core"
	"mvml/internal/health"
	"mvml/internal/nn"
	"mvml/internal/obs"
	"mvml/internal/tensor"
)

// poolState is a version pool's serving state.
type poolState int

const (
	poolServing poolState = iota
	// poolDraining rejects new batches while in-flight ones finish — the
	// first phase of rejuvenation.
	poolDraining
	// poolHalted is terminal (server shutdown).
	poolHalted
)

func (st poolState) String() string {
	switch st {
	case poolServing:
		return "serving"
	case poolDraining:
		return "draining"
	case poolHalted:
		return "halted"
	default:
		return "unknown"
	}
}

// batchJob asks one version for its predictions over a stacked batch.
type batchJob struct {
	batch *tensor.Tensor
	// out is buffered for every version, so a worker finishing after the
	// batch deadline never blocks on the send.
	out chan versionAnswer
}

// versionAnswer is one version's predictions for a batch (or its failure).
type versionAnswer struct {
	version int
	preds   []int
	err     error
	// start and end bracket the forward pass on the span sink's clock; both
	// zero when tracing is disabled. The batcher back-fills them as
	// "forward" intervals into every member request's trace.
	start, end float64
}

// worker is one replica plus its private stop signal, so the pool can be
// shrunk one worker at a time (autoscaling) without closing the shared jobs
// channel. quant carries the replica's calibrated int8 activation scales
// (nil on float pools); scales are keyed by layer identity, so they belong
// to exactly this replica's network.
type worker struct {
	nv    *core.NNVersion
	quant *nn.QuantParams
	stop  chan struct{}
}

// pool runs one version: a set of workers, each owning a private replica
// network with the version's shared weights. Replicas exist because layer
// forward passes record state — two batches must never share a network.
type pool struct {
	index int
	name  string
	m     *metrics

	jobs    chan batchJob
	workers []*worker
	wg      sync.WaitGroup

	// factory builds one more replica (used by resize) together with its
	// int8 calibration (nil for float pools); nextReplica numbers replicas so
	// each gets its own deterministic fault stream. Both are only touched
	// while the pool is quiesced under the server's rejuvMu.
	factory     func(replica int) (*core.NNVersion, *nn.QuantParams, error)
	nextReplica int

	// weightEpoch counts weight swaps on this pool's replicas (compromise,
	// rejuvenation restore). Workers compare it per job and invalidate their
	// arena's packed weight panels when it moved — without this a
	// rejuvenated replica would keep serving its compromised weights out of
	// the packed-GEMM cache. Bumped only while the pool is quiesced; atomic
	// because workers read it outside the lock.
	weightEpoch atomic.Uint64

	// quantized marks an int8 pool (status/reporting only; the workers'
	// QuantParams do the actual switching).
	quantized bool

	mu      sync.Mutex
	cond    *sync.Cond
	state   poolState
	pending int // jobs accepted but not yet finished

	// ring holds the outcome of the last DivergenceWindow decided requests
	// this version participated in — the reactive-trigger window.
	ring      *health.DivergenceRing
	threshold float64

	divergedTotal *obs.Counter
}

func newPool(index int, name string, cfg Config, m *metrics) *pool {
	p := &pool{
		index:         index,
		name:          name,
		m:             m,
		jobs:          make(chan batchJob, cfg.WorkersPerVersion),
		ring:          health.NewDivergenceRing(cfg.DivergenceWindow),
		threshold:     cfg.DivergenceThreshold,
		divergedTotal: m.divergence(name),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// addWorker registers one replica; call before start.
func (p *pool) addWorker(v *core.NNVersion, quant *nn.QuantParams) {
	p.workers = append(p.workers, &worker{nv: v, quant: quant, stop: make(chan struct{})})
	p.nextReplica++
}

// start launches one goroutine per replica.
func (p *pool) start() {
	for _, w := range p.workers {
		p.wg.Add(1)
		go p.run(w)
	}
}

// run is a worker loop: each job is a full-batch inference on this worker's
// private replica, through the fused-GEMM arena path. The arena is owned by
// this goroutine (like the replica itself), so buffers are reused across
// jobs without synchronisation; the prediction slice crosses the channel to
// the voter and therefore must be freshly allocated per job (preds = nil).
func (p *pool) run(w *worker) {
	defer p.wg.Done()
	ar := nn.NewInferenceArena()
	ar.Profiler = p.m.layerProfiler(p.name)
	ar.Quant = w.quant
	sink := p.m.spans
	seenEpoch := p.weightEpoch.Load()
	for {
		select {
		case <-w.stop:
			return
		case job, ok := <-p.jobs:
			if !ok {
				return
			}
			// A weight swap while this worker was idle (compromise or
			// rejuvenation ran under quiescence) invalidates the packed
			// weight panels cached in the arena.
			if ep := p.weightEpoch.Load(); ep != seenEpoch {
				ar.InvalidateWeights()
				seenEpoch = ep
			}
			ans := versionAnswer{version: p.index}
			if sink != nil {
				ans.start = sink.Now()
			}
			ans.preds, ans.err = w.nv.Network().PredictBatchArena(job.batch, ar, nil)
			if sink != nil {
				ans.end = sink.Now()
			}
			job.out <- ans
			p.finishJob()
		}
	}
}

// trySubmit offers a batch to the pool without ever blocking: it declines
// when the pool is draining/halted or all workers are busy with a full
// backlog. A declined version simply contributes no proposal to this batch.
func (p *pool) trySubmit(job batchJob) bool {
	p.mu.Lock()
	if p.state != poolServing {
		p.mu.Unlock()
		return false
	}
	p.pending++
	p.mu.Unlock()
	select {
	case p.jobs <- job:
		return true
	default:
		p.finishJob()
		return false
	}
}

func (p *pool) finishJob() {
	p.mu.Lock()
	p.pending--
	if p.pending == 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// withQuiesced drains the pool (no new batches; in-flight ones finish), runs
// fn on every replica while nothing touches the weights, and reinstates the
// pool. The first error is returned but every replica is still visited, so
// the replicas never diverge from each other.
func (p *pool) withQuiesced(fn func(*core.NNVersion) error) error {
	p.mu.Lock()
	if p.state == poolHalted {
		p.mu.Unlock()
		return ErrClosed
	}
	p.state = poolDraining
	for p.pending > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()

	var first error
	for _, w := range p.workers {
		if err := fn(w.nv); err != nil && first == nil {
			first = err
		}
	}
	// Every withQuiesced caller may have swapped weights (restore, fault
	// injection); bumping the epoch unconditionally costs at worst one
	// spurious repack per worker, while missing a bump would serve stale
	// packed weights. Ordered before the pool reopens so every worker sees
	// the new epoch ahead of its next job.
	p.weightEpoch.Add(1)

	p.mu.Lock()
	if p.state == poolDraining {
		p.state = poolServing
	}
	p.mu.Unlock()
	return first
}

// resize grows or shrinks the worker set to n replicas while the pool is
// quiesced. New replicas are built by the factory and then loaded with the
// CURRENT weights of an existing replica (not the pristine ones): if the
// version is compromised right now, all replicas must stay functionally
// identical until rejuvenation restores the whole set. Shrinking stops the
// newest workers first. Caller must serialise resize with rejuvenation
// (the server holds rejuvMu).
func (p *pool) resize(n int) error {
	p.mu.Lock()
	if p.state == poolHalted {
		p.mu.Unlock()
		return ErrClosed
	}
	p.state = poolDraining
	for p.pending > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()

	// The pool is quiesced, so no goroutine touches the replicas themselves;
	// the slice header is still guarded by p.mu for concurrent size() reads.
	var err error
	for len(p.workers) > n && len(p.workers) > 1 {
		w := p.workers[len(p.workers)-1]
		p.mu.Lock()
		p.workers = p.workers[:len(p.workers)-1]
		p.mu.Unlock()
		close(w.stop)
	}
	if len(p.workers) < n {
		cur := p.workers[0].nv.Network().CloneWeights()
		for len(p.workers) < n {
			nv, quant, ferr := p.factory(p.nextReplica)
			if ferr != nil {
				err = ferr
				break
			}
			if ferr := nv.Network().RestoreWeights(cur); ferr != nil {
				err = ferr
				break
			}
			p.nextReplica++
			w := &worker{nv: nv, quant: quant, stop: make(chan struct{})}
			p.mu.Lock()
			p.workers = append(p.workers, w)
			p.mu.Unlock()
			p.wg.Add(1)
			go p.run(w)
		}
	}

	p.mu.Lock()
	if p.state == poolDraining {
		p.state = poolServing
	}
	p.mu.Unlock()
	return err
}

// size reports the current replica count.
func (p *pool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers)
}

// halt permanently stops the pool and its workers (server shutdown).
func (p *pool) halt() {
	p.mu.Lock()
	if p.state == poolHalted {
		p.mu.Unlock()
		return
	}
	p.state = poolHalted
	for p.pending > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
	close(p.jobs)
	p.wg.Wait()
}

// observe records whether this version agreed with the voted output for one
// decided request, maintaining the reactive-trigger ring.
func (p *pool) observe(disagreed bool) {
	p.mu.Lock()
	p.ring.Observe(disagreed)
	p.mu.Unlock()
	if disagreed {
		p.divergedTotal.Inc()
	}
}

// shouldRejuvenate reports whether the divergence window is full and over
// threshold — the reactive trigger condition.
func (p *pool) shouldRejuvenate() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	rate, full := p.ring.Rate()
	return p.state == poolServing && full && rate >= p.threshold
}

// resetDivergence clears the window after rejuvenation so stale
// disagreements cannot immediately re-trigger.
func (p *pool) resetDivergence() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ring.Reset()
}

// divergenceRate is the current windowed disagreement fraction.
func (p *pool) divergenceRate() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	rate, _ := p.ring.Rate()
	return rate
}

func (p *pool) status() VersionStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	rate, _ := p.ring.Rate()
	return VersionStatus{
		Index:      p.index,
		Name:       p.name,
		State:      p.state.String(),
		InFlight:   p.pending,
		Workers:    len(p.workers),
		Quantized:  p.quantized,
		Divergence: rate,
	}
}
