package gateway

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"mvml/internal/health"
	"mvml/internal/obs"
	"mvml/internal/serve"
	"mvml/internal/tensor"
)

// Config parameterises a Gateway. The zero value is usable; zero fields take
// the documented defaults.
type Config struct {
	// VirtualNodes per shard on the hash ring (<=0: DefaultVirtualNodes).
	VirtualNodes int
	// MaxInflight bounds concurrently routed requests; beyond it the gateway
	// sheds with ErrShed (HTTP 429) instead of queueing. <=0 defaults to 256.
	MaxInflight int
	// FailoverDepth is the maximum number of distinct shards one request may
	// try (primary + failovers). <=0 defaults to 3.
	FailoverDepth int
	// RetryRatio is the retry-budget deposit per first attempt (<=0: 0.1 —
	// at most ~10% retry amplification in steady state); RetryBurst caps a
	// client's accumulated budget (<=0: 10).
	RetryRatio float64
	RetryBurst float64
	// MaxClients bounds the retry-budget table (<=0: 1024).
	MaxClients int
}

// Sentinel errors; the HTTP layer maps ErrShed to 429 and the rest to 503.
var (
	// ErrShed is returned when the gateway is at MaxInflight and rejects the
	// request at the front door.
	ErrShed = errors.New("gateway: overloaded, request shed")
	// ErrNoShards is returned when no shard is available to try.
	ErrNoShards = errors.New("gateway: no shards on ring")
	// ErrExhausted is returned when every candidate shard was tried (or the
	// retry budget ran dry) without an answer.
	ErrExhausted = errors.New("gateway: all candidate shards failed")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("gateway: closed")

	errEmptyShardLabel = errors.New("gateway: shard has no ShardLabel")
)

// RouteInfo is the routing trace of one request: which shards were attempted
// in order, and which one answered. For a fixed ring membership, health state
// and failure schedule the trace is deterministic — the property the failover
// determinism test pins.
type RouteInfo struct {
	Key      string   `json:"key"`
	Attempts []string `json:"attempts"`
	Shard    string   `json:"shard,omitempty"`
}

// Gateway fronts a set of serving shards. Create with New, add shards with
// AddShard, route with Classify, stop with Close (shards are not owned by the
// gateway and stay up).
type Gateway struct {
	cfg    Config
	m      *gwMetrics
	budget *retryBudget

	mu     sync.RWMutex
	ring   *Ring
	shards map[string]ShardClient

	inflight atomic.Int64
	closed   atomic.Bool
}

// New returns a gateway with no shards. rt carries telemetry (nil: none).
func New(cfg Config, rt *obs.Runtime) *Gateway {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 256
	}
	if cfg.FailoverDepth <= 0 {
		cfg.FailoverDepth = 3
	}
	return &Gateway{
		cfg:    cfg,
		m:      newGwMetrics(rt),
		budget: newRetryBudget(cfg.RetryRatio, cfg.RetryBurst, cfg.MaxClients),
		ring:   NewRing(cfg.VirtualNodes),
		shards: make(map[string]ShardClient),
	}
}

// AddShard registers a shard and puts it on the ring.
func (g *Gateway) AddShard(sc ShardClient) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.ring.Add(sc.ID()); err != nil {
		return err
	}
	g.shards[sc.ID()] = sc
	g.m.shards.Set(float64(g.ring.Size()))
	return nil
}

// Shard returns a registered shard by id (nil when unknown).
func (g *Gateway) Shard(id string) ShardClient {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.shards[id]
}

// Shards returns the ring membership in sorted order.
func (g *Gateway) Shards() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.ring.Shards()
}

// Plan returns the candidate shards for key in attempt order: the ring's
// successors ranked healthy, degraded, critical, then draining, in ring order
// within a rank. A critical shard still beats none — a wrong-answer chance
// beats no answer in a fail-operational system — and a draining one comes
// last, however sick the others are: it asked for no new traffic. Levels come
// from the shards' own state (ShardClient.Level), so the plan is a pure
// function of key, ring membership and shard state, and two gateways with
// the same view route identically.
func (g *Gateway) Plan(key string) []ShardClient {
	plan, _ := g.plan(key)
	return plan
}

// rankDraining ranks a draining shard after every health level.
const rankDraining = int(health.Critical) + 1

// plan also reports the ring owner's id, so Classify can count reroutes
// (first attempt away from the owner). Each successor is ranked once and
// insertion-sorted, stably, into the plan.
func (g *Gateway) plan(key string) ([]ShardClient, string) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	succ := g.ring.Successors(key, g.cfg.FailoverDepth)
	if len(succ) == 0 {
		return nil, ""
	}
	plan := make([]ShardClient, 0, len(succ))
	ranks := make([]int, 0, len(succ))
	for _, id := range succ {
		sc := g.shards[id]
		if sc == nil {
			continue
		}
		rank := rankDraining
		if !sc.Draining() {
			rank = int(sc.Level())
		}
		i := len(plan)
		for i > 0 && ranks[i-1] > rank {
			i--
		}
		plan = slices.Insert(plan, i, sc)
		ranks = slices.Insert(ranks, i, rank)
	}
	return plan, succ[0]
}

// RouteKey derives the ring key for a classify request: the client-supplied
// image hash, or the synthetic class index. Keeping the derivation here means
// the HTTP handler and in-process callers route identically. The image hash
// reads each pixel's bits, so a key is the same on every architecture (a
// float-to-integer conversion is not, for negative or huge pixels).
func RouteKey(req *serve.ClassifyRequest) string {
	if req.Class != nil {
		return fmt.Sprintf("class:%d:%d", *req.Class, req.Seed)
	}
	h := uint64(1469598103934665603) // FNV-1a offset basis, inlined over floats
	for _, v := range req.Image {
		h ^= uint64(math.Float32bits(v))
		h *= 1099511628211
	}
	return fmt.Sprintf("img:%016x", h)
}

// Classify routes one request: plan candidates for key, attempt in order.
// The first attempt is free; each subsequent attempt (failover) spends one
// token from client's retry budget. A shard answering — even degraded —
// terminates the walk. Queue-full, closed and no-proposal errors advance to
// the next candidate; anything else (malformed input) returns immediately.
func (g *Gateway) Classify(key, client string, img *tensor.Tensor) (serve.Result, RouteInfo, error) {
	info := RouteInfo{Key: key}
	if g.closed.Load() {
		return serve.Result{}, info, ErrClosed
	}
	if n := g.inflight.Add(1); n > int64(g.cfg.MaxInflight) {
		g.inflight.Add(-1)
		g.m.shed.Inc()
		g.emitShed(key, client)
		return serve.Result{}, info, ErrShed
	}
	defer func() {
		g.m.inflight.Set(float64(g.inflight.Add(-1)))
	}()
	g.m.inflight.Set(float64(g.inflight.Load()))

	plan, owner := g.plan(key)
	if len(plan) == 0 {
		return serve.Result{}, info, ErrNoShards
	}
	if plan[0].ID() != owner {
		// The hash owner was ranked behind another shard: a reroute, not a
		// failover (nothing failed — the plan just started elsewhere).
		g.m.rerouted.Inc()
	}
	g.budget.deposit(client)

	var sp *obs.Span
	sink := g.m.spans
	if sink != nil {
		sp = sink.StartTrace("route")
		sp.SetAttr("key", key)
		if client != "" {
			sp.SetAttr("client", client)
		}
		defer sp.End()
	}

	var lastErr error
	for i, sc := range plan {
		if i > 0 {
			// Failover: needs budget. A dry budget ends the walk — bounded
			// retry amplification is the whole point.
			if !g.budget.spend(client) {
				g.m.noBudget.Inc()
				if sp != nil {
					sp.SetAttr("budget_exhausted", true)
				}
				break
			}
			g.m.retries.Inc()
			g.m.failovers.Inc()
		}
		info.Attempts = append(info.Attempts, sc.ID())
		var t0 float64
		if sink != nil {
			t0 = sink.Now()
		}
		res, err := sc.Classify(img)
		if sp != nil {
			attrs := map[string]any{"shard": sc.ID()}
			if err != nil {
				attrs["error"] = err.Error()
			}
			kind := "attempt"
			if i > 0 {
				kind = "failover"
			}
			sp.Interval(kind, t0, sink.Now(), attrs)
		}
		switch {
		case err == nil:
			info.Shard = sc.ID()
			if sc.ID() == owner {
				g.m.routed.Inc()
			}
			g.m.attempts.Observe(float64(i + 1))
			if sp != nil {
				sp.SetAttr("shard", sc.ID())
				if i > 0 {
					sp.SetAttr("failovers", i)
				}
			}
			return res, info, nil
		case errors.Is(err, serve.ErrQueueFull),
			errors.Is(err, serve.ErrClosed),
			errors.Is(err, serve.ErrNoProposals):
			lastErr = err // transient / shard-local: try the next candidate
		default:
			return serve.Result{}, info, err // request-shaped error: no retry helps
		}
	}
	g.m.failed.Inc()
	if lastErr == nil {
		lastErr = ErrExhausted
	}
	return serve.Result{}, info, fmt.Errorf("%w (last: %v)", ErrExhausted, lastErr)
}

// emitShed records a shed decision as a zero-duration trace, so overload
// shows up on the same timeline as the routing it displaced.
func (g *Gateway) emitShed(key, client string) {
	if g.m.spans == nil {
		return
	}
	t := g.m.spans.Now()
	attrs := map[string]any{"key": key}
	if client != "" {
		attrs["client"] = client
	}
	g.m.spans.Emit(g.m.spans.NewTraceID(), 0, "shed", t, t, attrs)
}

// Inflight returns the number of requests currently being routed.
func (g *Gateway) Inflight() int { return int(g.inflight.Load()) }

// Close stops the gateway: later requests get ErrClosed. Registered shards
// are not closed — the gateway routes over them, it does not own them.
func (g *Gateway) Close() { g.closed.Store(true) }
