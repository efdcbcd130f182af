package gateway

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mvml/internal/health"
	"mvml/internal/nn"
	"mvml/internal/obs"
	"mvml/internal/serve"
	"mvml/internal/signs"
	"mvml/internal/xrand"
)

// tinyNet is a flatten+dense classifier with identical weights across
// versions, so a pristine ensemble always agrees and only a compromised
// version diverges.
func tinyNet(version int, _ *xrand.Rand) (*nn.Network, error) {
	r := xrand.New(1234)
	return &nn.Network{
		Name: fmt.Sprintf("tiny-%d", version),
		Layers: []nn.Layer{
			nn.NewFlatten("flat"),
			nn.NewDense("fc", nn.InputChannels*nn.InputSize*nn.InputSize, signs.NumClasses, r),
		},
	}, nil
}

// routedAnswer is one request as a client and the fleet saw it.
type routedAnswer struct {
	Shard     string
	Class     int
	Degraded  bool
	Agreeing  int
	Proposals int
}

// fleetTrace is what a run decided: every request's route and answer, and
// the requests after which a rejuvenation ran.
type fleetTrace struct {
	answers []routedAnswer
	rejuv   []int
}

// fleetShards builds the fleet's two real shards, shard-0 and shard-1, over
// tinyNet; the test's cleanup closes them.
func fleetShards(t *testing.T, rt *obs.Runtime, h *health.Options) []*LocalShard {
	t.Helper()
	var shards []*LocalShard
	for i := 0; i < 2; i++ {
		cfg := serve.DefaultConfig()
		cfg.ShardLabel = fmt.Sprintf("shard-%d", i)
		cfg.NewNetwork = tinyNet
		cfg.InjectLayer = 0  // the tiny net's only parameterised layer
		cfg.InjectCount = 64 // enough perturbed weights to flip argmax
		cfg.DivergenceWindow = 8
		cfg.RequestTimeout = 5 * time.Second
		cfg.Health = h
		srv, err := serve.New(cfg, rt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		sh, err := NewLocalShard(srv)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sh)
	}
	return shards
}

// runFleet routes n sequential requests over two real shards, compromising
// one version of shard-0 at request 0 and one of shard-1 at request n/2.
// After each reply it waits until every shard reads Healthy again: the vote
// observes the window before the reply is sent, so a trip is visible by then
// and its drain has finished (and reset the window) when the wait ends. No
// request races a drain, and the run is deterministic.
func runFleet(t *testing.T, rt *obs.Runtime, h *health.Options, n int) fleetTrace {
	t.Helper()
	shards := fleetShards(t, rt, h)
	gw := New(Config{}, rt)
	defer gw.Close()
	for _, sh := range shards {
		defer sh.Close() // before a second runFleet in the same test starts
		if err := gw.AddShard(sh); err != nil {
			t.Fatal(err)
		}
	}
	rejuvenations := func() int {
		total := 0
		for _, sh := range shards {
			versions, _ := sh.Server().Status()
			for _, v := range versions {
				total += v.Rejuvenations
			}
		}
		return total
	}
	var tr fleetTrace
	for i := 0; i < n; i++ {
		switch i {
		case 0:
			if err := shards[0].Compromise(0); err != nil {
				t.Fatal(err)
			}
		case n / 2:
			if err := shards[1].Compromise(1); err != nil {
				t.Fatal(err)
			}
		}
		before := rejuvenations()
		img := signs.Render(i%signs.NumClasses, xrand.New(uint64(i)), signs.DefaultConfig())
		res, info, err := gw.Classify(fmt.Sprintf("req:%d", i), "gate", img)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		tr.answers = append(tr.answers, routedAnswer{info.Shard, res.Class, res.Degraded, res.Agreeing, res.Proposals})
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
			healthy := true
			for _, sh := range shards {
				healthy = healthy && sh.Level() == health.Healthy
			}
			if healthy {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("request %d: fleet not healthy 10 s after the reply", i)
			}
		}
		if rejuvenations() != before {
			tr.rejuv = append(tr.rejuv, i)
		}
	}
	return tr
}

// TestRoutingIndependentOfTelemetry is the gate for "telemetry never
// decides": two shards behind a gateway, one version of each compromised in
// turn, route every request to the same shard, answer it the same way and
// rejuvenate after the same requests with telemetry off and with a runtime
// and a health engine on every shard.
func TestRoutingIndependentOfTelemetry(t *testing.T) {
	const n = 240
	bare := runFleet(t, nil, nil, n)
	if len(bare.rejuv) < 2 {
		t.Fatalf("rejuvenations after requests %v, want one per compromise", bare.rejuv)
	}
	shards := map[string]int{}
	for _, a := range bare.answers {
		shards[a.Shard]++
	}
	if len(shards) != 2 {
		t.Fatalf("requests reached %v, want both shards", shards)
	}
	t.Logf("requests per shard %v, rejuvenations after requests %v", shards, bare.rejuv)
	tele := runFleet(t, obs.NewRuntime(0), &health.Options{}, n)
	for i := range bare.answers {
		if bare.answers[i] != tele.answers[i] {
			t.Fatalf("request %d: %+v without telemetry, %+v with", i, bare.answers[i], tele.answers[i])
		}
	}
	if !reflect.DeepEqual(bare.rejuv, tele.rejuv) {
		t.Fatalf("rejuvenations after requests %v without telemetry, %v with", bare.rejuv, tele.rejuv)
	}
}

// staleShard is a real shard as a gateway sees it a moment before its server
// closes: the plan still reads it Healthy (a closed LocalShard reads Critical
// at once, so in process only this race reaches a failover).
type staleShard struct{ *LocalShard }

func (staleShard) Level() health.Level { return health.Healthy }

// TestClosedOwnerFailsOverToSuccessor: runFleet's two real shards, and the
// owner of a set of keys closes. Each of those requests tries the owner,
// gets serve.ErrClosed and is answered by the ring successor on a failover;
// none fails.
func TestClosedOwnerFailsOverToSuccessor(t *testing.T) {
	rt := obs.NewRuntime(0)
	shards := fleetShards(t, rt, nil)
	gw := New(Config{RetryRatio: 1}, rt) // one failover per request
	defer gw.Close()
	for _, sh := range shards {
		if err := gw.AddShard(staleShard{sh}); err != nil {
			t.Fatal(err)
		}
	}
	var keys []string
	for i := 0; len(keys) < 8; i++ {
		if key := fmt.Sprintf("req:%d", i); gw.ring.Lookup(key) == "shard-0" {
			keys = append(keys, key)
		}
	}
	shards[0].Close()
	for i, key := range keys {
		img := signs.Render(i%signs.NumClasses, xrand.New(uint64(i)), signs.DefaultConfig())
		_, info, err := gw.Classify(key, "gate", img)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if want := []string{"shard-0", "shard-1"}; info.Shard != "shard-1" || !reflect.DeepEqual(info.Attempts, want) {
			t.Fatalf("%s: answered by %s after %v, want shard-1 after %v", key, info.Shard, info.Attempts, want)
		}
	}
	if got := gw.m.failovers.Value(); got < 1 {
		t.Fatalf("failover counter %d, want >= 1", got)
	}
	if got := gw.m.failed.Value(); got != 0 {
		t.Fatalf("%d requests failed, want 0", got)
	}
}
