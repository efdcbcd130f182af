package serve

import (
	"slices"
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
	// out is buffered for every version, so a forward finishing after the
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

// pool runs one version: one network, one weight set, and the arenas its
// forwards borrow. The arena forward pass writes nothing to the network, so
// concurrent forwards share it read-only and each owns only its arena; the
// weights are written (fault injection, rejuvenation) only while the pool is
// quiesced, that is while no forward holds an arena.
type pool struct {
	index int
	name  string
	m     *metrics

	// net is the version's network and pristine the snapshot of its weights
	// rejuvenation reloads, the "safe memory location" (§IV); compromise
	// applies the configured fault to net. quant is its int8 calibration
	// (nil: float pool).
	net        *nn.Network
	pristine   [][]float32
	compromise func() error
	quant      *nn.QuantParams

	mu    sync.Mutex
	cond  *sync.Cond // broadcast when the last held arena comes back
	state poolState
	// arenas is every arena of the pool, one per forward that may run at
	// once (Config.WorkersPerVersion); idle holds those no forward holds.
	arenas, idle []*nn.InferenceArena

	// ring holds the outcome of the last DivergenceWindow decided requests
	// this version participated in — the reactive-trigger window.
	ring      *divergenceRing
	threshold float64
	// rejuvenations counts the drains that restored this version.
	rejuvenations int

	divergedTotal *obs.Counter
}

// newPool snapshots net's weights and gives the pool cfg.WorkersPerVersion
// arenas.
func newPool(index int, net *nn.Network, compromise func() error, quant *nn.QuantParams, cfg Config, m *metrics) *pool {
	p := &pool{
		index:         index,
		name:          net.Name,
		m:             m,
		net:           net,
		pristine:      net.CloneWeights(),
		compromise:    compromise,
		quant:         quant,
		ring:          newDivergenceRing(cfg.DivergenceWindow),
		threshold:     cfg.DivergenceThreshold,
		divergedTotal: m.divergence(net.Name),
	}
	p.cond = sync.NewCond(&p.mu)
	p.setArenas(cfg.WorkersPerVersion)
	return p
}

// setArenas keeps the first n arenas, adding cold ones that pack whatever
// weights are live at their first forward, and marks them all idle. Called
// with p.mu held (or before the pool is shared) while no forward runs.
func (p *pool) setArenas(n int) {
	arenas := make([]*nn.InferenceArena, n)
	copy(arenas, p.arenas)
	for i := len(p.arenas); i < n; i++ {
		ar := nn.NewInferenceArena()
		ar.Profiler = p.m.layerProfiler(p.name)
		ar.Quant = p.quant
		arenas[i] = ar
	}
	p.arenas, p.idle = arenas, slices.Clone(arenas)
}

// trySubmit offers a batch to the pool without ever blocking: it declines
// when the pool is draining/halted or every arena is held by a forward. A
// declined version simply contributes no proposal to this batch.
func (p *pool) trySubmit(job batchJob) bool {
	p.mu.Lock()
	if p.state != poolServing || len(p.idle) == 0 {
		p.mu.Unlock()
		return false
	}
	ar := p.idle[len(p.idle)-1]
	p.idle = p.idle[:len(p.idle)-1]
	p.mu.Unlock()
	go p.forward(ar, job)
	return true
}

// forward is one full-batch inference on the pool's network through the
// borrowed arena. The arena goes back before the answer is sent: a client
// that has its reply may send the next request at once, and that batch must
// find the arena idle. Sending last is safe: job.out has room for every
// version, and the prediction slice is fresh (preds = nil), so nothing reads
// the arena after it is returned.
func (p *pool) forward(ar *nn.InferenceArena, job batchJob) {
	sink := p.m.spans
	ans := versionAnswer{version: p.index}
	if sink != nil {
		ans.start = sink.Now()
	}
	ans.preds, ans.err = p.net.PredictBatchArena(job.batch, ar, nil)
	if sink != nil {
		ans.end = sink.Now()
	}
	p.mu.Lock()
	p.idle = append(p.idle, ar)
	if len(p.idle) == len(p.arenas) {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	job.out <- ans
}

// quiesce moves the pool to state to (draining or halted: no new batches)
// and waits until no forward holds an arena, so that on return the network
// and every arena stay untouched until reopen. It reports false on a pool
// already halted.
func (p *pool) quiesce(to poolState) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state == poolHalted {
		return false
	}
	p.state = to
	for len(p.idle) < len(p.arenas) {
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

// withQuiesced drains the pool, runs fn while no forward reads the weights,
// and reinstates the pool. fn may have rewritten the weights (restore, fault
// injection), so every arena's packed weight panels are marked stale before
// a forward can borrow it again: the last forward's use is ordered before
// this through p.mu, the next one's after it through p.mu too. One spurious
// repack per arena is the cost of not asking.
func (p *pool) withQuiesced(fn func() error) error {
	if !p.quiesce(poolDraining) {
		return ErrClosed
	}
	err := fn()
	for _, ar := range p.arenas {
		ar.InvalidateWeights()
	}
	p.reopen()
	return err
}

// resize gives the quiesced pool n ≥ 1 arenas. The weights are not touched:
// a new arena packs what the others read, so a compromised version stays
// compromised until it is rejuvenated. Caller must serialise resize with
// rejuvenation (the server holds rejuvMu).
func (p *pool) resize(n int) error {
	if !p.quiesce(poolDraining) {
		return ErrClosed
	}
	p.mu.Lock()
	p.setArenas(n)
	p.mu.Unlock()
	p.reopen()
	return nil
}

// size reports the current arena count.
func (p *pool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.arenas)
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
		InFlight:      len(p.arenas) - len(p.idle),
		Workers:       len(p.arenas),
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
