package gateway

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mvml/internal/stats"
)

// AutoscalerConfig parameterises the gateway's autoscaler. Zero fields take
// the documented defaults.
type AutoscalerConfig struct {
	// Interval between evaluations (<=0: 500ms).
	Interval time.Duration
	// MinWorkers/MaxWorkers bound each shard's per-version worker pool
	// (<=0: 1 and 8).
	MinWorkers int
	MaxWorkers int
	// QueueHigh/QueueLow are admission-queue occupancy fractions: sustained
	// occupancy above QueueHigh reads as pressure, below QueueLow as slack
	// (<=0: 0.5 and 0.05).
	QueueHigh float64
	QueueLow  float64
	// P99Target is the routing-latency objective, judged against the p99 of
	// the gateway's own window of its last 512 routed requests; a p99 above
	// it reads as pressure even with shallow queues (<=0: 250ms).
	P99Target time.Duration
	// UpStreak/DownStreak are how many consecutive pressured (resp. slack)
	// evaluations trigger a scale-up (resp. scale-down). Scale-up reacts
	// fast, scale-down hesitates — flapping costs more than idling
	// (<=0: 2 and 8).
	UpStreak   int
	DownStreak int
	// MinShards/MaxShards bound whole-shard scaling (<=0: 1 and 8). Shard
	// spawn/retire only happens when SpawnShard is set.
	MinShards int
	MaxShards int
	// SpawnShard builds a new shard for the given ring id when every
	// existing shard is already at MaxWorkers. nil disables shard scaling
	// (worker pools still resize).
	SpawnShard func(id string) (ShardControl, error)
	// OnEvent, when set, observes every applied action (demo logging).
	OnEvent func(ScaleEvent)
}

func (c AutoscalerConfig) withDefaults() AutoscalerConfig {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.MinWorkers <= 0 {
		c.MinWorkers = 1
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 8
	}
	if c.QueueHigh <= 0 {
		c.QueueHigh = 0.5
	}
	if c.QueueLow <= 0 {
		c.QueueLow = 0.05
	}
	if c.P99Target <= 0 {
		c.P99Target = 250 * time.Millisecond
	}
	if c.UpStreak <= 0 {
		c.UpStreak = 2
	}
	if c.DownStreak <= 0 {
		c.DownStreak = 8
	}
	if c.MinShards <= 0 {
		c.MinShards = 1
	}
	if c.MaxShards <= 0 {
		c.MaxShards = 8
	}
	return c
}

// ScaleEvent is one applied autoscaling action.
type ScaleEvent struct {
	T       time.Time `json:"-"`
	Kind    string    `json:"kind"` // grow | shrink | spawn | retire
	Shard   string    `json:"shard"`
	Workers int       `json:"workers,omitempty"`
	Reason  string    `json:"reason"`
}

// shardSignal is one shard's pressure snapshot.
type shardSignal struct {
	ID        string
	QueueFrac float64
	Workers   int
	Draining  bool
}

// scaleSignals is everything one autoscaler evaluation sees.
type scaleSignals struct {
	Shards []shardSignal // sorted by ID for deterministic tie-breaks
	P99    time.Duration
}

// pressure classifies one snapshot: the highest queue occupancy among
// non-draining shards, and whether the snapshot reads as pressure (p99 over
// target, or a queue at QueueHigh) or as slack (p99 under half the target and
// every queue at most QueueLow).
func pressure(cfg AutoscalerConfig, sig scaleSignals) (maxFrac float64, hot, cold bool) {
	for _, s := range sig.Shards {
		if !s.Draining && s.QueueFrac > maxFrac {
			maxFrac = s.QueueFrac
		}
	}
	hot = sig.P99 > cfg.P99Target || maxFrac >= cfg.QueueHigh
	cold = sig.P99 < cfg.P99Target/2 && maxFrac <= cfg.QueueLow
	return maxFrac, hot, cold
}

// scaleAction is a decided (not yet applied) scaling step.
type scaleAction struct {
	Kind    string // grow | shrink | spawn | retire | none
	Shard   string
	Workers int // target per-version pool size for grow/shrink
	Reason  string
}

// decide is the autoscaling policy as a pure function: signals and streak
// counters in, one action out. Purity is what makes the policy unit-testable
// without spinning up servers.
//
// Pressure (p99 over target, or any queue over QueueHigh) sustained for
// UpStreak evaluations grows the hottest shard's pools by one worker; when
// the hottest shard is already at MaxWorkers a new shard is spawned instead.
// Slack sustained for DownStreak evaluations shrinks the coldest shard; when
// it is already at MinWorkers and more than MinShards remain, the coldest
// shard is retired. One action per evaluation, always — a single step then a
// fresh look beats a big bang from stale signals.
func decide(cfg AutoscalerConfig, sig scaleSignals, upStreak, downStreak int) scaleAction {
	live := make([]shardSignal, 0, len(sig.Shards))
	for _, s := range sig.Shards {
		if !s.Draining {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return scaleAction{Kind: "none"}
	}
	hotIdx, coldIdx := 0, 0
	for i, s := range live {
		if s.QueueFrac > live[hotIdx].QueueFrac {
			hotIdx = i
		}
		if s.QueueFrac < live[coldIdx].QueueFrac {
			coldIdx = i
		}
	}
	maxFrac, hot, cold := pressure(cfg, sig)

	switch {
	case hot && upStreak >= cfg.UpStreak:
		h := live[hotIdx]
		if h.Workers < cfg.MaxWorkers {
			return scaleAction{
				Kind: "grow", Shard: h.ID, Workers: h.Workers + 1,
				Reason: fmt.Sprintf("queue %.0f%%, p99 %v", maxFrac*100, sig.P99.Round(time.Millisecond)),
			}
		}
		if cfg.SpawnShard != nil && len(live) < cfg.MaxShards {
			return scaleAction{
				Kind:   "spawn",
				Reason: fmt.Sprintf("hottest shard %s at max workers (%d)", h.ID, h.Workers),
			}
		}
	case cold && downStreak >= cfg.DownStreak:
		c := live[coldIdx]
		if c.Workers > cfg.MinWorkers {
			return scaleAction{
				Kind: "shrink", Shard: c.ID, Workers: c.Workers - 1,
				Reason: fmt.Sprintf("queue %.0f%%, p99 %v", maxFrac*100, sig.P99.Round(time.Millisecond)),
			}
		}
		if cfg.SpawnShard != nil && len(live) > cfg.MinShards {
			return scaleAction{
				Kind: "retire", Shard: c.ID,
				Reason: fmt.Sprintf("coldest shard at min workers, %d shards live", len(live)),
			}
		}
	}
	return scaleAction{Kind: "none"}
}

// autoscaler runs the evaluation loop over a gateway's shards.
type autoscaler struct {
	cfg AutoscalerConfig
	gw  *Gateway

	done chan struct{}
	wg   sync.WaitGroup

	upStreak, downStreak int
	nextID               int
	retiring             []ShardControl
}

// StartAutoscaler attaches an autoscaler to the gateway and starts its loop.
// Call once; the autoscaler stops with the gateway's Close.
func (g *Gateway) StartAutoscaler(cfg AutoscalerConfig) {
	if g.scaler != nil {
		return
	}
	a := &autoscaler{cfg: cfg.withDefaults(), gw: g, done: make(chan struct{})}
	g.scaler = a
	a.wg.Add(1)
	go a.loop()
}

func (a *autoscaler) stop() {
	close(a.done)
	a.wg.Wait()
}

func (a *autoscaler) loop() {
	defer a.wg.Done()
	ticker := time.NewTicker(a.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-a.done:
			return
		case <-ticker.C:
			a.evaluate()
		}
	}
}

// signals gathers the current pressure snapshot. Only shards implementing
// ShardControl participate (a routing-only ShardClient cannot be resized).
func (a *autoscaler) signals() scaleSignals {
	g := a.gw
	g.mu.RLock()
	ctrls := make([]ShardControl, 0, len(g.shards))
	for _, sc := range g.shards {
		if c, ok := sc.(ShardControl); ok {
			ctrls = append(ctrls, c)
		}
	}
	g.mu.RUnlock()

	sig := scaleSignals{}
	for _, c := range ctrls {
		frac := 0.0
		if cap := c.QueueCapacity(); cap > 0 {
			frac = float64(c.QueueDepth()) / float64(cap)
		}
		sig.Shards = append(sig.Shards, shardSignal{
			ID: c.ID(), QueueFrac: frac, Workers: c.Workers(), Draining: c.Draining(),
		})
	}
	sort.Slice(sig.Shards, func(i, j int) bool { return sig.Shards[i].ID < sig.Shards[j].ID })
	if lat := g.latencySnapshot(); len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		sig.P99 = stats.NearestRank(lat, 0.99)
	}
	return sig
}

func (a *autoscaler) evaluate() {
	a.reapRetiring()
	sig := a.signals()
	if len(sig.Shards) == 0 {
		return
	}
	// Streaks advance on the raw pressure/slack classification so decide
	// stays pure; decide sees the post-increment values.
	switch _, hot, cold := pressure(a.cfg, sig); {
	case hot:
		a.upStreak++
		a.downStreak = 0
	case cold:
		a.downStreak++
		a.upStreak = 0
	default:
		a.upStreak, a.downStreak = 0, 0
	}

	act := decide(a.cfg, sig, a.upStreak, a.downStreak)
	if act.Kind == "none" {
		return
	}
	a.upStreak, a.downStreak = 0, 0
	a.apply(act)
}

// apply executes one decided action against the live topology.
func (a *autoscaler) apply(act scaleAction) {
	g := a.gw
	ev := ScaleEvent{T: time.Now(), Kind: act.Kind, Shard: act.Shard, Workers: act.Workers, Reason: act.Reason}
	switch act.Kind {
	case "grow", "shrink":
		sc, _ := g.Shard(act.Shard).(ShardControl)
		if sc == nil {
			return
		}
		if err := sc.Resize(act.Workers); err != nil {
			return
		}
		g.m.workers(act.Shard).Set(float64(act.Workers))
	case "spawn":
		id := fmt.Sprintf("shard-auto%d", a.nextID)
		a.nextID++
		sc, err := a.cfg.SpawnShard(id)
		if err != nil {
			return
		}
		ev.Shard, ev.Workers = sc.ID(), sc.Workers()
		if err := g.AddShard(sc); err != nil {
			sc.Close()
			return
		}
		g.m.workers(sc.ID()).Set(float64(sc.Workers()))
	case "retire":
		// Zero-downtime retirement: off the ring first (no new primaries),
		// then drain-flag (successors preferred for stragglers), close only
		// once the queue is observed empty.
		removed, err := g.RemoveShard(act.Shard)
		if err != nil {
			return
		}
		sc, _ := removed.(ShardControl)
		if sc == nil {
			return
		}
		sc.SetDraining(true)
		a.retiring = append(a.retiring, sc)
	}
	a.emit(ev)
}

// reapRetiring closes retiring shards whose queues have drained.
func (a *autoscaler) reapRetiring() {
	kept := a.retiring[:0]
	for _, sc := range a.retiring {
		if sc.QueueDepth() == 0 {
			sc.Close()
			a.emit(ScaleEvent{T: time.Now(), Kind: "closed", Shard: sc.ID(), Reason: "drained"})
			continue
		}
		kept = append(kept, sc)
	}
	a.retiring = kept
}

func (a *autoscaler) emit(ev ScaleEvent) {
	if sink := a.gw.m.spans; sink != nil {
		t := sink.Now()
		sink.Emit(sink.NewTraceID(), 0, "scale", t, t, map[string]any{
			"action": ev.Kind, "shard": ev.Shard, "workers": ev.Workers, "reason": ev.Reason,
		})
	}
	if a.cfg.OnEvent != nil {
		a.cfg.OnEvent(ev)
	}
}
