package serve

import (
	"sync"

	"mvml/internal/core"
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

// worker is one serving goroutine's private state: the arena it runs the
// pool's network through, and a stop signal so the pool can shrink one worker
// at a time without closing the shared jobs channel. done closes on exit.
type worker struct {
	arena      *nn.InferenceArena
	stop, done chan struct{}
}

// pool runs one version: one network, one weight set, and a set of workers
// that share both read-only. The arena forward pass writes nothing to the
// network, so a worker owns only its arena; the weights are written (fault
// injection, rejuvenation) only while the pool is quiesced.
type pool struct {
	index int
	name  string
	m     *metrics

	// nv is the version's network: live weights plus the pristine snapshot
	// rejuvenation reloads. quant is its int8 calibration (nil: float pool).
	nv    *core.NNVersion
	quant *nn.QuantParams

	jobs    chan batchJob
	workers []*worker
	wg      sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond
	state   poolState
	pending int // jobs accepted but not yet finished

	// ring holds the outcome of the last DivergenceWindow decided requests
	// this version participated in — the reactive-trigger window.
	ring      *divergenceRing
	threshold float64
	// rejuvenations counts the drains that restored this version.
	rejuvenations int

	divergedTotal *obs.Counter
}

// newPool starts cfg.WorkersPerVersion workers on nv.
func newPool(index int, nv *core.NNVersion, quant *nn.QuantParams, cfg Config, m *metrics) *pool {
	p := &pool{
		index:         index,
		name:          nv.Name(),
		m:             m,
		nv:            nv,
		quant:         quant,
		jobs:          make(chan batchJob, cfg.WorkersPerVersion),
		ring:          newDivergenceRing(cfg.DivergenceWindow),
		threshold:     cfg.DivergenceThreshold,
		divergedTotal: m.divergence(nv.Name()),
	}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < cfg.WorkersPerVersion; w++ {
		p.addWorker()
	}
	return p
}

// addWorker starts one more worker on the shared network, with a cold arena
// that packs whatever weights are live at its first job. Only called while
// no job can arrive: from newPool, or with the pool quiesced.
func (p *pool) addWorker() {
	w := &worker{arena: nn.NewInferenceArena(), stop: make(chan struct{}), done: make(chan struct{})}
	w.arena.Profiler = p.m.layerProfiler(p.name)
	w.arena.Quant = p.quant
	p.mu.Lock()
	p.workers = append(p.workers, w)
	p.mu.Unlock()
	p.wg.Add(1)
	go p.run(w)
}

// run is a worker loop: each job is a full-batch inference on the pool's
// network through this goroutine's arena, so buffers are reused across jobs
// without synchronisation; the prediction slice crosses the channel to the
// voter and therefore must be freshly allocated per job (preds = nil).
func (p *pool) run(w *worker) {
	defer p.wg.Done()
	defer close(w.done)
	sink := p.m.spans
	for {
		select {
		case <-w.stop:
			return
		case job, ok := <-p.jobs:
			if !ok {
				return
			}
			ans := versionAnswer{version: p.index}
			if sink != nil {
				ans.start = sink.Now()
			}
			ans.preds, ans.err = p.nv.Network().PredictBatchArena(job.batch, w.arena, nil)
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

// quiesce moves the pool to state to (draining or halted: no new batches)
// and waits for the in-flight ones, so that on return every worker is idle
// and stays idle until reopen. It reports false on a pool already halted.
func (p *pool) quiesce(to poolState) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state == poolHalted {
		return false
	}
	p.state = to
	for p.pending > 0 {
		p.cond.Wait()
	}
	return true
}

// reopen puts a draining pool back in service (a halted one stays halted).
func (p *pool) reopen() {
	p.mu.Lock()
	if p.state == poolDraining {
		p.state = poolServing
	}
	p.mu.Unlock()
}

// withQuiesced drains the pool, runs fn on the version while no worker reads
// its weights, and reinstates the pool. fn may have rewritten the weights
// (restore, fault injection), so every arena's packed weight panels are
// marked stale before a worker can take its next job: the idle workers'
// last use is ordered before this through p.mu, their next through p.mu and
// the jobs channel. One spurious repack per worker is the cost of not asking.
func (p *pool) withQuiesced(fn func(*core.NNVersion) error) error {
	if !p.quiesce(poolDraining) {
		return ErrClosed
	}
	err := fn(p.nv)
	for _, w := range p.workers {
		w.arena.InvalidateWeights()
	}
	p.reopen()
	return err
}

// resize grows or shrinks the pool to n ≥ 1 workers while it is quiesced.
// The weights are not touched: a new worker reads what the others read, so
// a compromised version stays compromised until it is rejuvenated. A removed
// worker is waited for: out of p.workers its arena is no longer invalidated,
// so it must not win one more job. Caller must serialise resize with
// rejuvenation (the server holds rejuvMu).
func (p *pool) resize(n int) error {
	if !p.quiesce(poolDraining) {
		return ErrClosed
	}
	// Quiesced, so only this goroutine writes p.workers; the slice header is
	// still guarded by p.mu for concurrent size() reads.
	for len(p.workers) > n {
		w := p.workers[len(p.workers)-1]
		p.mu.Lock()
		p.workers = p.workers[:len(p.workers)-1]
		p.mu.Unlock()
		close(w.stop)
		<-w.done
	}
	for len(p.workers) < n {
		p.addWorker()
	}
	p.reopen()
	return nil
}

// size reports the current worker count.
func (p *pool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers)
}

// halt permanently stops the pool and its workers (server shutdown).
func (p *pool) halt() {
	if !p.quiesce(poolHalted) {
		return
	}
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

// policyState is the version as the rejuvenation policy sees it, and the only
// place that decides "this version is diverging" (NonFunctional: the window is
// full and over threshold outside the cooldown). A compromise stays invisible
// until then, as in the paper; a pool out of rotation is Rejuvenating.
func (p *pool) policyState() core.ModuleState {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch rate, full := p.ring.Rate(); {
	case p.state != poolServing:
		return core.Rejuvenating
	case full && rate >= p.threshold && p.ring.cooldown == 0:
		return core.NonFunctional
	}
	return core.Healthy
}

// resetDivergence clears the window after rejuvenation and starts the
// cooldown, so stale disagreements cannot immediately re-trigger.
func (p *pool) resetDivergence() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ring.Reset()
	p.rejuvenations++
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
		Index:         p.index,
		Name:          p.name,
		State:         p.state.String(),
		InFlight:      p.pending,
		Workers:       len(p.workers),
		Quantized:     p.quant != nil,
		Divergence:    rate,
		Rejuvenations: p.rejuvenations,
	}
}

// cooldownWindows is how many windows of decided rounds a version serves
// after a rejuvenation before its window may trigger again. A version that
// disagrees with the majority at its baseline rate — a weak model, not a
// compromised one — would otherwise be rejuvenated every time its window
// refills: on fleet_lifecycle, twelve 32-round windows (about 5 s at 70
// decided rounds per shard per second) halve those false triggers and leave
// the detection of the scripted compromise as fast (EXPERIMENTS.md). It is
// counted in rounds, not seconds, so the decision depends on the answers
// alone.
const cooldownWindows = 12

// divergenceRing is one version's reactive-trigger window: the outcome of the
// last n decided rounds it took part in (true = it disagreed with the voted
// output). Not safe for concurrent use; the pool's lock guards it.
type divergenceRing struct {
	window    []bool
	pos, fill int
	disagreed int
	// cooldown counts down the rounds after a Reset during which the ring
	// must not trigger.
	cooldown int
}

// newDivergenceRing returns a ring over the last n rounds (minimum 1).
func newDivergenceRing(n int) *divergenceRing {
	if n < 1 {
		n = 1
	}
	return &divergenceRing{window: make([]bool, n)}
}

// Observe records one decided round.
func (r *divergenceRing) Observe(disagreed bool) {
	if r.cooldown > 0 {
		r.cooldown--
	}
	if r.fill == len(r.window) {
		if r.window[r.pos] {
			r.disagreed--
		}
	} else {
		r.fill++
	}
	r.window[r.pos] = disagreed
	if disagreed {
		r.disagreed++
	}
	r.pos = (r.pos + 1) % len(r.window)
}

// Reset clears the window and starts the cooldown.
func (r *divergenceRing) Reset() {
	clear(r.window)
	r.pos, r.fill, r.disagreed = 0, 0, 0
	r.cooldown = cooldownWindows * len(r.window)
}

// Rate returns the windowed disagreement fraction and whether the window
// has filled (rates over a part-filled window are not trigger-worthy).
func (r *divergenceRing) Rate() (float64, bool) {
	if r.fill == 0 {
		return 0, false
	}
	return float64(r.disagreed) / float64(r.fill), r.fill == len(r.window)
}
