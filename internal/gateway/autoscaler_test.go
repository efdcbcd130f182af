package gateway

import (
	"testing"
	"time"
)

func scaleCfg() AutoscalerConfig {
	cfg := AutoscalerConfig{
		MinWorkers: 1, MaxWorkers: 4,
		QueueHigh: 0.5, QueueLow: 0.05,
		P99Target: 250 * time.Millisecond,
		UpStreak:  2, DownStreak: 8,
		MinShards: 1, MaxShards: 8,
		SpawnShard: func(string) (ShardControl, error) { return nil, nil },
	}
	return cfg.withDefaults()
}

func sig(p99 time.Duration, shards ...shardSignal) scaleSignals {
	return scaleSignals{Shards: shards, P99: p99}
}

func TestDecideGrowsHottestShard(t *testing.T) {
	act := decide(scaleCfg(), sig(10*time.Millisecond,
		shardSignal{ID: "a", QueueFrac: 0.2, Workers: 2},
		shardSignal{ID: "b", QueueFrac: 0.9, Workers: 2},
	), 2, 0)
	if act.Kind != "grow" || act.Shard != "b" || act.Workers != 3 {
		t.Fatalf("want grow b->3, got %+v", act)
	}
}

func TestDecideLatencyAloneTriggersGrowth(t *testing.T) {
	act := decide(scaleCfg(), sig(time.Second,
		shardSignal{ID: "a", QueueFrac: 0.0, Workers: 1},
	), 2, 0)
	if act.Kind != "grow" || act.Shard != "a" {
		t.Fatalf("p99 breach should grow, got %+v", act)
	}
}

func TestDecideRespectsUpStreak(t *testing.T) {
	act := decide(scaleCfg(), sig(time.Second,
		shardSignal{ID: "a", QueueFrac: 0.9, Workers: 2},
	), 1, 0)
	if act.Kind != "none" {
		t.Fatalf("one hot sample should not scale, got %+v", act)
	}
}

func TestDecideSpawnsWhenWorkersMaxed(t *testing.T) {
	cfg := scaleCfg()
	act := decide(cfg, sig(time.Second,
		shardSignal{ID: "a", QueueFrac: 0.9, Workers: cfg.MaxWorkers},
	), 2, 0)
	if act.Kind != "spawn" {
		t.Fatalf("maxed workers under pressure should spawn, got %+v", act)
	}
	// Without a spawner, worker-maxed pressure has no remaining lever.
	cfg.SpawnShard = nil
	act = decide(cfg, sig(time.Second,
		shardSignal{ID: "a", QueueFrac: 0.9, Workers: cfg.MaxWorkers},
	), 2, 0)
	if act.Kind != "none" {
		t.Fatalf("no spawner: want none, got %+v", act)
	}
}

func TestDecideShrinksColdestShard(t *testing.T) {
	act := decide(scaleCfg(), sig(time.Millisecond,
		shardSignal{ID: "a", QueueFrac: 0.01, Workers: 3},
		shardSignal{ID: "b", QueueFrac: 0.02, Workers: 2},
	), 0, 8)
	if act.Kind != "shrink" || act.Shard != "a" || act.Workers != 2 {
		t.Fatalf("want shrink a->2, got %+v", act)
	}
}

func TestDecideRetiresAtMinWorkers(t *testing.T) {
	cfg := scaleCfg()
	act := decide(cfg, sig(time.Millisecond,
		shardSignal{ID: "a", QueueFrac: 0.0, Workers: cfg.MinWorkers},
		shardSignal{ID: "b", QueueFrac: 0.01, Workers: cfg.MinWorkers},
	), 0, 8)
	if act.Kind != "retire" || act.Shard != "a" {
		t.Fatalf("want retire a, got %+v", act)
	}
	// Never below MinShards.
	act = decide(cfg, sig(time.Millisecond,
		shardSignal{ID: "a", QueueFrac: 0.0, Workers: cfg.MinWorkers},
	), 0, 8)
	if act.Kind != "none" {
		t.Fatalf("MinShards floor violated: %+v", act)
	}
}

func TestDecideIgnoresDrainingShards(t *testing.T) {
	// The draining shard's hot queue must not trigger growth — it is on the
	// way out, and resizing a retiring shard wastes the work.
	act := decide(scaleCfg(), sig(time.Millisecond,
		shardSignal{ID: "a", QueueFrac: 0.95, Workers: 2, Draining: true},
		shardSignal{ID: "b", QueueFrac: 0.01, Workers: 2},
	), 2, 0)
	if act.Kind == "grow" && act.Shard == "a" {
		t.Fatalf("grew a draining shard: %+v", act)
	}
	// Only draining shards left: nothing to do.
	act = decide(scaleCfg(), sig(time.Second,
		shardSignal{ID: "a", QueueFrac: 0.9, Workers: 2, Draining: true},
	), 5, 0)
	if act.Kind != "none" {
		t.Fatalf("want none with only draining shards, got %+v", act)
	}
}

func TestDecideSteadyStateDoesNothing(t *testing.T) {
	// Mid-band occupancy: neither hot nor cold regardless of streaks.
	for _, streaks := range [][2]int{{5, 0}, {0, 20}} {
		act := decide(scaleCfg(), sig(100*time.Millisecond,
			shardSignal{ID: "a", QueueFrac: 0.2, Workers: 2},
		), streaks[0], streaks[1])
		if act.Kind != "none" {
			t.Fatalf("steady state acted: %+v", act)
		}
	}
}

// TestSignalsP99FromOwnWindow pins the autoscaler's only latency signal:
// the nearest-rank p99 over the gateway's window of its last 512 routed
// requests, 0 while the window is empty.
func TestSignalsP99FromOwnWindow(t *testing.T) {
	gw := New(Config{}, nil)
	defer gw.Close()
	if err := gw.AddShard(newFakeShard("a")); err != nil {
		t.Fatal(err)
	}
	a := &autoscaler{gw: gw, cfg: AutoscalerConfig{}.withDefaults()}
	if got := a.signals().P99; got != 0 {
		t.Fatalf("P99 of an empty window = %v, want 0", got)
	}
	// 1ms..100ms in scrambled order: the nearest-rank p99 of 100 is the 99th.
	for i := 0; i < 100; i++ {
		gw.recordLatency(time.Duration(1+(i*37)%100) * time.Millisecond)
	}
	if got := a.signals().P99; got != 99*time.Millisecond {
		t.Fatalf("P99 of 1..100ms = %v, want 99ms", got)
	}
	// Wrap the ring: 512 fast requests push every earlier one out.
	for i := 0; i < 512; i++ {
		gw.recordLatency(time.Millisecond)
	}
	if got := a.signals().P99; got != time.Millisecond {
		t.Fatalf("P99 after the ring wrapped = %v, want 1ms (only the last 512 count)", got)
	}
	// The nearest rank of p99 over 512 is the 507th: five slow requests sit
	// above it, the sixth reaches it.
	for i := 0; i < 5; i++ {
		gw.recordLatency(time.Second)
	}
	if got := a.signals().P99; got != time.Millisecond {
		t.Fatalf("P99 with 5 slow of the last 512 = %v, want 1ms", got)
	}
	gw.recordLatency(time.Second)
	if got := a.signals().P99; got != time.Second {
		t.Fatalf("P99 with 6 slow of the last 512 = %v, want 1s", got)
	}
}
