// Package serve is the online multi-version inference serving subsystem: it
// exposes the paper's three-version classifier ensemble (§IV) as a concurrent
// request/response service with bounded admission, micro-batching, majority
// voting, graceful degradation and zero-downtime rejuvenation.
//
// Request flow:
//
//	client → admission queue (bounded; full ⇒ explicit rejection)
//	       → micro-batcher   (flush on batch size or an empty queue)
//	       → per-version worker pools (the N versions run concurrently)
//	       → majority voter  (rules R.1–R.3; safe skip ⇒ degraded fallback)
//	       → response
//
// A version is one network with one weight set. Its workers share it
// read-only — the arena forward pass writes no layer state — and each owns
// only an nn.InferenceArena, so a version answers identically regardless of
// which worker serves the batch.
//
// Rejuvenation never stops the service: one version at a time is drained
// (workers finish in-flight batches, new batches skip the version), its
// network reloads the pristine weights from safe storage, and it is reinstated
// while the remaining versions keep answering — requests served meanwhile are
// at most tagged degraded, never failed. The paper's policy (core.Rejuvenator)
// decides what to rejuvenate from its two triggers: reactive (divergence from
// the majority exceeding a threshold) and proactive (a timer).
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mvml/internal/core"
	"mvml/internal/faultinject"
	"mvml/internal/health"
	"mvml/internal/nn"
	"mvml/internal/obs"
	"mvml/internal/signs"
	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

// Config parameterises a Server. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Versions is the ensemble size (the paper's n; default 3).
	Versions int
	// WorkersPerVersion is how many workers (goroutine + arena) serve each
	// version's one network concurrently.
	WorkersPerVersion int
	// QueueDepth bounds the admission queue; a full queue rejects instead
	// of blocking (explicit backpressure).
	QueueDepth int
	// MaxBatch is the micro-batch flush size. There is no flush deadline: a
	// batch closes as soon as the queue is empty, so only requests that
	// arrived while the previous batch was in flight are batched together.
	MaxBatch int
	// RequestTimeout is the per-request deadline. Versions that have not
	// answered by then are dropped from the vote; the request degrades to
	// whatever proposals arrived rather than failing.
	RequestTimeout time.Duration
	// Seed drives model initialisation, training and fault injection.
	Seed uint64
	// TrainEpochs trains each version on the signs dataset before serving;
	// 0 serves the deterministic untrained initialisation (fast start for
	// tests and latency-focused load runs).
	TrainEpochs int
	// Dataset configures the training data when TrainEpochs > 0.
	Dataset signs.Config
	// ProactiveInterval: each tick drains one in-rotation version, drawn
	// uniformly, once none is diverging or draining (g2); 0 disables it.
	ProactiveInterval time.Duration
	// DivergenceWindow and DivergenceThreshold configure the reactive
	// trigger: a version whose answers disagreed with the voted output in
	// at least Threshold of the last Window decided requests is rejuvenated.
	DivergenceWindow    int
	DivergenceThreshold float64
	// InjectLayer is the parameterised layer Compromise faults (the paper
	// injects into layer 1 with range (-10, 30)); InjectCount is how many
	// weights one compromise event perturbs.
	InjectLayer int
	InjectCount int
	// Int8Versions lists version indices served through the fixed-point int8
	// inference path: each listed version's workers quantize its weights
	// symmetrically and run the quantized GEMM kernels, with activation
	// scales calibrated once per version on the signs test split (see
	// nn.CalibrateInt8). Decisions are verified against the float path by the
	// golden-corpus gate in internal/nn; unlisted versions are untouched, so
	// a mixed ensemble pits both numeric regimes against each other in the
	// vote. Empty serves everything in float32.
	Int8Versions []int
	// ProfileLayers enables the per-layer inference profiler: every layer
	// dispatch is timed and every GEMM's shape and byte volume is counted
	// into the obs registry (mvserve_layer_seconds, mvserve_gemm_*). Off by
	// default — profiling is observational and never changes answers, but
	// the per-layer clock reads cost a few percent of inference throughput.
	ProfileLayers bool
	// NewNetwork overrides how a version's network is built (tests use
	// small identical networks). nil selects the three small classifier
	// architectures from internal/nn in round-robin order.
	NewNetwork func(version int, r *xrand.Rand) (*nn.Network, error)
	// Health, when non-nil, attaches a streaming health engine to the span
	// firehose: SLO error budgets, anomaly detectors and the online α
	// estimator feed /healthz and the mv_health_* gauges. The engine decides
	// nothing: the pools alone decide which version is diverging and when it
	// is rejuvenated, and Level (the gateway's routing signal) reads the
	// pools too. The engine watches those decisions (a version goes critical
	// at its rejuvenation_trigger span and healthy again at its
	// rejuvenation). Requires a telemetry runtime with a span sink; the
	// engine only observes published spans, so responses, routing and
	// rejuvenations are identical with it on or off.
	Health *health.Options
	// ShardLabel names this server inside a multi-shard deployment. When
	// non-empty every span the server emits carries a "shard" attribute, so a
	// shared span sink stays attributable per shard (the gateway's per-shard
	// health engines filter on it, and mvtrace groups stage latencies by it).
	// Empty for a standalone server — spans are then byte-identical to the
	// pre-gateway format.
	ShardLabel string

	// batchGate, when non-nil, makes the batcher wait for a token before
	// collecting each batch — lets tests fill the admission queue
	// deterministically.
	batchGate chan struct{}
}

// DefaultConfig returns serving parameters suitable for the demo workload.
func DefaultConfig() Config {
	return Config{
		Versions:            3,
		WorkersPerVersion:   2,
		QueueDepth:          64,
		MaxBatch:            8,
		RequestTimeout:      500 * time.Millisecond,
		Seed:                38,
		Dataset:             signs.DefaultConfig(),
		InjectLayer:         1,
		InjectCount:         1,
		DivergenceWindow:    32,
		DivergenceThreshold: 0.5,
	}
}

// Validate reports whether the configuration is serveable.
func (c Config) Validate() error {
	if c.Versions < 1 {
		return fmt.Errorf("serve: need at least one version, got %d", c.Versions)
	}
	if c.WorkersPerVersion < 1 {
		return fmt.Errorf("serve: need at least one worker per version, got %d", c.WorkersPerVersion)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("serve: queue depth %d", c.QueueDepth)
	}
	if c.MaxBatch < 1 {
		return fmt.Errorf("serve: max batch %d", c.MaxBatch)
	}
	if c.RequestTimeout <= 0 {
		return fmt.Errorf("serve: request timeout %v", c.RequestTimeout)
	}
	if c.InjectCount < 1 {
		return fmt.Errorf("serve: inject count %d", c.InjectCount)
	}
	if c.ProactiveInterval < 0 {
		return fmt.Errorf("serve: proactive interval %v (0 disables it)", c.ProactiveInterval)
	}
	if c.TrainEpochs < 0 {
		return fmt.Errorf("serve: train epochs %d (0 serves untrained)", c.TrainEpochs)
	}
	if c.TrainEpochs > 0 && c.Dataset.TrainPerClass == 0 {
		return fmt.Errorf("serve: %d train epochs on an empty training split", c.TrainEpochs)
	}
	for _, v := range c.Int8Versions {
		if v < 0 || v >= c.Versions {
			return fmt.Errorf("serve: int8 version %d outside [0,%d)", v, c.Versions)
		}
	}
	if len(c.Int8Versions) > 0 && c.Dataset.TestPerClass == 0 {
		return fmt.Errorf("serve: int8 versions %v need a calibration set, but the test split is empty", c.Int8Versions)
	}
	if c.DivergenceWindow < 1 {
		return fmt.Errorf("serve: divergence window %d", c.DivergenceWindow)
	}
	if c.DivergenceThreshold <= 0 || c.DivergenceThreshold > 1 {
		return fmt.Errorf("serve: divergence threshold %v outside (0,1]", c.DivergenceThreshold)
	}
	return nil
}

// Sentinel errors surfaced to callers; the HTTP layer maps them to status
// codes (429 for ErrQueueFull, 503 for ErrNoProposals and ErrClosed).
var (
	// ErrQueueFull is returned when the admission queue is at capacity —
	// the service sheds load explicitly instead of queueing unboundedly.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrClosed is returned once the server has shut down.
	ErrClosed = errors.New("serve: server closed")
	// ErrNoProposals is returned when no version answered before the
	// request deadline, so not even a degraded answer exists.
	ErrNoProposals = errors.New("serve: no version answered before the deadline")
)

// Result is the served answer for one classification request.
type Result struct {
	// Class is the voted (or degraded-fallback) class index.
	Class int
	// Degraded marks answers that did not come from a full healthy
	// majority: the voter safely skipped and a fallback proposal was used,
	// or fewer than the configured number of versions answered in time.
	Degraded bool
	// Reason explains a degraded answer.
	Reason string
	// Agreeing and Proposals echo the voter's tally.
	Agreeing  int
	Proposals int
	// Err is set when the request failed outright (no proposals at all).
	Err error
}

// request is one queued classification.
type request struct {
	image    *tensor.Tensor
	enqueued time.Time
	deadline time.Time
	done     chan Result // buffered(1); exactly one send

	// span is the request's trace root (nil when tracing is disabled). It is
	// owned by the submitting goroutine until the request enters the queue;
	// the channel handoff then transfers ownership to the batcher, which
	// back-fills the stage intervals and ends it.
	span *obs.Span
	// tq is the queue-wait start on the span sink's clock.
	tq float64
}

// Server is the serving subsystem. Create with New, stop with Close.
type Server struct {
	cfg    Config
	pools  []*pool
	voter  core.Voter[int]
	m      *metrics
	health *health.Engine // nil when the health engine is disabled

	queue chan *request
	depth atomic.Int64 // live queue length, mirrored into the gauge

	stop    chan struct{}
	stopped sync.WaitGroup
	closed  atomic.Bool

	// rejuvMu serialises rejuvenation, compromise and worker resizing so at
	// most one version is ever out of service at a time (the other n−1 keep
	// answering).
	rejuvMu sync.Mutex
	// detect wakes rejuvLoop; reacting is set with the wake-up and cleared
	// when the loop is idle again, so concurrent triggers collapse into one.
	detect   chan struct{}
	reacting atomic.Bool

	// draining is the gateway-visible lifecycle state: a draining shard keeps
	// answering whatever still reaches it (zero downtime), but advertises
	// that new traffic should be routed to its ring successor. Purely
	// advisory — admission itself never rejects on it.
	draining atomic.Bool

	startedAt time.Time
}

// New builds the ensemble (optionally training it), starts the batcher,
// worker pools and the rejuvenation loop, and returns a serving
// Server. rt carries the telemetry runtime; nil serves uninstrumented —
// instrumentation never changes responses.
func New(cfg Config, rt *obs.Runtime) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := xrand.New(cfg.Seed)

	var train, calib []nn.Sample
	if cfg.TrainEpochs > 0 || len(cfg.Int8Versions) > 0 {
		ds, err := signs.Generate(cfg.Dataset)
		if err != nil {
			return nil, fmt.Errorf("serve: training data: %w", err)
		}
		if cfg.TrainEpochs > 0 {
			train = ds.Train
		}
		if len(cfg.Int8Versions) > 0 {
			// Int8 activation scales are calibrated on the test split — the
			// same distribution the quantized versions will serve.
			calib = ds.Test
		}
	}

	s := &Server{
		cfg:       cfg,
		voter:     core.NewEqualityVoter[int](),
		m:         newMetrics(rt, cfg.ProfileLayers, cfg.ShardLabel),
		queue:     make(chan *request, cfg.QueueDepth),
		stop:      make(chan struct{}),
		detect:    make(chan struct{}, 1),
		startedAt: time.Now(),
	}
	if cfg.Health != nil && s.m.spans != nil {
		// The engine rides the span firehose: it sees every published span
		// (votes, stages, triggers, rejuvenations) and nothing else, so
		// enabling it cannot change a single response.
		opts := *cfg.Health
		if opts.ShardFilter == "" {
			// On a shared multi-shard sink this engine must judge only its
			// own shard's spans.
			opts.ShardFilter = cfg.ShardLabel
		}
		s.health = health.NewEngine(opts, s.m.reg)
		s.m.spans.Attach(s.health)
	}

	for v := 0; v < cfg.Versions; v++ {
		var vcalib []nn.Sample
		for _, iv := range cfg.Int8Versions {
			if iv == v {
				vcalib = calib
				break
			}
		}
		p, err := s.buildPool(v, root, train, vcalib)
		if err != nil {
			s.haltPools()
			return nil, err
		}
		s.pools = append(s.pools, p)
	}

	s.stopped.Add(2)
	go s.batchLoop()
	// Split does not advance root, so no model, training or fault stream moves.
	go s.rejuvLoop(core.NewRejuvenator(core.Config{}, root.Split("rejuvenation", 0)))
	return s, nil
}

// makeNetwork builds version v's architecture with its deterministic stream.
func (s *Server) makeNetwork(v int, root *xrand.Rand) (*nn.Network, error) {
	r := root.Split("model", uint64(v))
	if s.cfg.NewNetwork != nil {
		return s.cfg.NewNetwork(v, r)
	}
	names := nn.AllModels()
	return nn.NewModel(names[v%len(names)], signs.NumClasses, r)
}

// buildPool builds version v's one network — trained here when a training set
// is given, calibrated for int8 when a calibration set is — and starts its
// pool. The fault stream is derived per version, so a compromise perturbs the
// same weights however many workers serve it.
func (s *Server) buildPool(v int, root *xrand.Rand, train, calib []nn.Sample) (*pool, error) {
	net, err := s.makeNetwork(v, root)
	if err != nil {
		return nil, fmt.Errorf("serve: version %d: %w", v, err)
	}
	if len(train) > 0 {
		tcfg := nn.DefaultTrainConfig()
		tcfg.Epochs = s.cfg.TrainEpochs
		if err := nn.Train(net, train, tcfg, root.Split("train", uint64(v))); err != nil {
			return nil, fmt.Errorf("serve: training version %d: %w", v, err)
		}
	}
	var quant *nn.QuantParams
	if len(calib) > 0 {
		if quant, err = nn.CalibrateInt8(net, calib, s.cfg.MaxBatch); err != nil {
			return nil, fmt.Errorf("serve: version %d: calibration: %w", v, err)
		}
	}
	layer, count := s.cfg.InjectLayer, s.cfg.InjectCount
	faultR := root.Split("fault", uint64(v)<<16)
	compromise := func() error {
		for i := 0; i < count; i++ {
			if _, err := faultinject.RandomWeightInj(net, layer, -10, 30, faultR); err != nil {
				return err
			}
		}
		return nil
	}
	return newPool(v, net, compromise, quant, s.cfg, s.m), nil
}

// Classify queues one image and blocks until its answer, deadline or
// rejection. The returned error mirrors Result.Err (nil for degraded
// answers — degradation is an answer, not a failure).
func (s *Server) Classify(img *tensor.Tensor) (Result, error) {
	req, err := s.submit(img)
	if err != nil {
		return Result{Err: err}, err
	}
	res := <-req.done
	return res, res.Err
}

// submit performs bounded admission: it never blocks on a full queue.
func (s *Server) submit(img *tensor.Tensor) (*request, error) {
	req, err := s.admit(img)
	if err != nil {
		return nil, err
	}
	if err := s.enqueue(req); err != nil {
		return nil, err
	}
	return req, nil
}

// admit checks that the server is open and the image well-formed, and builds
// the request with its admission interval closed.
func (s *Server) admit(img *tensor.Tensor) (*request, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	// sink is nil when tracing is disabled; every span call below is then a
	// no-op and t0 is never read.
	sink := s.m.spans
	var sp *obs.Span
	var t0 float64
	if sink != nil {
		sp = sink.StartTrace("request")
		if s.cfg.ShardLabel != "" {
			sp.SetAttr("shard", s.cfg.ShardLabel)
		}
		t0 = sink.Now()
	}
	want := nn.InputChannels * nn.InputSize * nn.InputSize
	if img == nil || img.Len() != want {
		sp.SetAttr("error", "bad_image")
		sp.End()
		return nil, fmt.Errorf("serve: image must have %d values", want)
	}
	now := time.Now()
	req := &request{
		image:    img,
		enqueued: now,
		deadline: now.Add(s.cfg.RequestTimeout),
		done:     make(chan Result, 1),
	}
	if sink != nil {
		// All span writes happen before the channel send: the moment the
		// request enters the queue the batcher owns it (and its span), so
		// the admission interval closes here and queue wait starts.
		req.span = sp
		req.tq = sink.Now()
		sp.Interval("admission", t0, req.tq, s.m.shardAttrs)
	}
	return req, nil
}

// enqueue offers an admitted request to the queue without blocking. Close may
// have drained the queue between admit's check and the send here, leaving the
// request where nobody reads; so when the server reads closed after the send,
// the submitter drains too. Whoever pulls a request fails it, exactly once.
func (s *Server) enqueue(req *request) error {
	select {
	case s.queue <- req:
		s.m.queueDepth.Set(float64(s.depth.Add(1)))
		if s.closed.Load() {
			s.failQueued()
		}
		return nil
	default:
		req.span.SetAttr("error", "queue_full")
		req.span.End()
		s.m.rejected.Inc()
		return ErrQueueFull
	}
}

// failQueued answers everything still queued with ErrClosed; nothing will
// serve it now. Safe to run concurrently: the channel hands each request to
// exactly one caller.
func (s *Server) failQueued() {
	for {
		select {
		case req := <-s.queue:
			s.depth.Add(-1)
			req.done <- Result{Err: ErrClosed}
			req.span.SetAttr("error", "closed")
			req.span.End()
		default:
			s.m.queueDepth.Set(float64(s.depth.Load()))
			return
		}
	}
}

// Rejuvenate drains version v, reloads its pristine weights and reinstates
// it, while the other versions keep serving. kind labels the trigger in the
// metrics and must be one of the Rejuv* kinds ("" means manual), so the label
// stays bounded. Serialised: concurrent calls queue up, so at most one
// version is out of rotation at any moment.
func (s *Server) Rejuvenate(v int, kind string) error {
	switch kind {
	case "":
		kind = RejuvManual
	case RejuvManual, RejuvProactive, RejuvReactive:
	default:
		return fmt.Errorf("serve: unknown rejuvenation kind %q", kind)
	}
	p, err := s.pool(v)
	if err != nil {
		return err
	}
	s.rejuvMu.Lock()
	defer s.rejuvMu.Unlock()
	start := time.Now()
	t0 := s.m.spans.Now()
	err = p.withQuiesced(func() error { return p.net.RestoreWeights(p.pristine) })
	p.resetDivergence()
	if err != nil {
		return fmt.Errorf("serve: rejuvenating %s: %w", p.name, err)
	}
	// The span covers drain → restore → reinstate; request traces proceed
	// concurrently on the other versions.
	s.lifecycle("rejuvenation", t0, s.m.spans.Now(), map[string]any{
		"version": p.name, "kind": kind,
		"drain_ms": float64(time.Since(start)) / float64(time.Millisecond),
	})
	s.m.rejuvenations(kind).Inc()
	return nil
}

// Compromise injects the configured weight fault into version v — the
// serving-side analogue of an attack, used by the demo and tests to provoke
// divergence. The pool is quiesced during injection so no worker reads
// weights mid-write.
func (s *Server) Compromise(v int) error {
	p, err := s.pool(v)
	if err != nil {
		return err
	}
	s.rejuvMu.Lock()
	defer s.rejuvMu.Unlock()
	err = p.withQuiesced(p.compromise)
	if err != nil {
		return fmt.Errorf("serve: compromising %s: %w", p.name, err)
	}
	now := s.m.spans.Now()
	s.lifecycle("compromise", now, now, map[string]any{"version": p.name})
	return nil
}

// lifecycle publishes one lifecycle operation as its own single-span trace
// (an instant when start == end), labelled with the shard.
func (s *Server) lifecycle(kind string, start, end float64, attrs map[string]any) {
	if s.cfg.ShardLabel != "" {
		attrs["shard"] = s.cfg.ShardLabel
	}
	sink := s.m.spans
	sink.Emit(sink.NewTraceID(), 0, kind, start, end, attrs)
}

func (s *Server) pool(v int) (*pool, error) {
	if v < 0 || v >= len(s.pools) {
		return nil, fmt.Errorf("serve: version %d outside [0,%d)", v, len(s.pools))
	}
	return s.pools[v], nil
}

// VersionStatus is one version's health snapshot.
type VersionStatus struct {
	Index      int     `json:"index"`
	Name       string  `json:"name"`
	State      string  `json:"state"`
	InFlight   int     `json:"in_flight"`
	Workers    int     `json:"workers"`
	Quantized  bool    `json:"quantized,omitempty"`
	Divergence float64 `json:"divergence"`
	// Rejuvenations counts the drains that restored the version, of any kind.
	Rejuvenations int `json:"rejuvenations"`
}

// Status reports the live health of every version plus the queue depth.
func (s *Server) Status() (versions []VersionStatus, queueDepth int) {
	for _, p := range s.pools {
		versions = append(versions, p.status())
	}
	return versions, int(s.depth.Load())
}

// Health returns the attached health engine (nil when disabled).
func (s *Server) Health() *health.Engine { return s.health }

// Level is the shard's routing level, a pure function of its pools' states:
// Healthy while every version is in rotation and not diverging, Degraded
// while a strict majority still is (one tripped or draining version out of
// three), Critical otherwise. It reads no telemetry, so a gateway routes the
// same with the health engine on or off, and a level recovers when the drain
// resets the window, whether traffic reaches the shard or not.
func (s *Server) Level() health.Level {
	healthy := 0
	for _, p := range s.pools {
		if p.policyState() == core.Healthy {
			healthy++
		}
	}
	switch {
	case healthy == len(s.pools):
		return health.Healthy
	case 2*healthy > len(s.pools):
		return health.Degraded
	}
	return health.Critical
}

// ShardLabel returns the configured shard label ("" for standalone servers).
func (s *Server) ShardLabel() string { return s.cfg.ShardLabel }

// QueueDepth returns the live admission-queue length (the gateway reports it
// per shard in its /healthz).
func (s *Server) QueueDepth() int { return int(s.depth.Load()) }

// QueueCapacity returns the admission queue's bound.
func (s *Server) QueueCapacity() int { return s.cfg.QueueDepth }

// Workers returns the current per-version worker count (the pools are kept
// symmetric, so any pool's size is the answer).
func (s *Server) Workers() int {
	if len(s.pools) == 0 {
		return 0
	}
	return s.pools[0].size()
}

// SetDraining flips the shard-lifecycle drain flag. Draining is a routable
// condition, not an error: the server keeps answering everything that still
// reaches it, and the flag only tells the routing tier (gateway ring) to
// prefer successors. The transition is traced so incident timelines show
// when traffic was steered away.
func (s *Server) SetDraining(v bool) {
	if s.draining.Swap(v) == v {
		return
	}
	now := s.m.spans.Now()
	s.lifecycle("drain", now, now, map[string]any{"draining": v})
}

// Draining reports the shard-lifecycle drain flag.
func (s *Server) Draining() bool { return s.draining.Load() }

// ResizeWorkers grows or shrinks every version pool to perVersion workers,
// one pool at a time so at most one version is ever paused — the other n−1
// keep answering while a pool quiesces (the same zero-downtime contract as
// rejuvenation). Weights are not touched: a compromised version stays
// compromised, on every worker, until it is rejuvenated.
func (s *Server) ResizeWorkers(perVersion int) error {
	if perVersion < 1 {
		return fmt.Errorf("serve: need at least one worker per version, got %d", perVersion)
	}
	s.rejuvMu.Lock()
	defer s.rejuvMu.Unlock()
	from := s.Workers()
	if from == perVersion {
		return nil
	}
	t0 := s.m.spans.Now()
	var first error
	for _, p := range s.pools {
		if err := p.resize(perVersion); err != nil && first == nil {
			first = fmt.Errorf("serve: resizing %s: %w", p.name, err)
		}
	}
	s.lifecycle("resize", t0, s.m.spans.Now(), map[string]any{"from": from, "to": perVersion})
	return first
}

// RejuvenateAll drains, restores and reinstates every version in sequence —
// the whole-shard rejuvenation a gateway performs behind a drained ring
// entry. Zero downtime within the shard: Rejuvenate serialises on rejuvMu,
// so only one version is ever out of rotation.
func (s *Server) RejuvenateAll(kind string) error {
	var first error
	for v := range s.pools {
		if err := s.Rejuvenate(v, kind); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops admission, lets the batcher finish queued work (failing
// anything unservable with ErrClosed), and waits for all goroutines.
// Idempotent.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	close(s.stop)
	s.stopped.Wait()
	s.haltPools()
	s.failQueued()
}

func (s *Server) haltPools() {
	for _, p := range s.pools {
		p.halt()
	}
}

// rejuvLoop runs the paper's policy on wall time: a tick is a trigger expiry,
// maybeReact's wake-up a detection, and each drain runs here, one at a time (a
// reactive one announced by a rejuvenation_trigger span). The policy sees the
// pools' own states and nothing else.
func (s *Server) rejuvLoop(r *core.Rejuvenator) {
	defer s.stopped.Done()
	var tick <-chan time.Time
	if s.cfg.ProactiveInterval > 0 {
		t := time.NewTicker(s.cfg.ProactiveInterval)
		defer t.Stop()
		tick = t.C
	}
	states := make([]core.ModuleState, len(s.pools))
	for {
		select {
		case <-s.stop:
			return
		case <-tick:
			r.Tick()
		case <-s.detect:
		}
		for !s.closed.Load() {
			for i, p := range s.pools {
				states[i] = p.policyState()
			}
			v, proactive, ok := r.Next(states)
			if !ok {
				break
			}
			kind := RejuvProactive
			if !proactive {
				kind = RejuvReactive
				now := s.m.spans.Now()
				s.lifecycle("rejuvenation_trigger", now, now,
					map[string]any{"version": s.pools[v].name, "rate": s.pools[v].divergenceRate()})
			}
			_ = s.Rejuvenate(v, kind)
			r.Done(v)
		}
		s.reacting.Store(false)
	}
}

// maybeReact wakes rejuvLoop when a pool's divergence window says its version
// is diverging. It runs after every batch on the batcher, so it never waits
// on a drain and skips the pool locks while the loop is already reacting.
func (s *Server) maybeReact() {
	if s.reacting.Load() {
		return
	}
	for _, p := range s.pools {
		if p.policyState() == core.NonFunctional {
			s.reacting.Store(true)
			select {
			case s.detect <- struct{}{}:
			default:
			}
			return
		}
	}
}

// Rejuvenation trigger kinds, used as the metric label.
const (
	RejuvProactive = "proactive"
	RejuvReactive  = "reactive"
	RejuvManual    = "manual"
)
