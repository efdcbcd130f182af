package gateway

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mvml/internal/health"
	"mvml/internal/serve"
	"mvml/internal/tensor"
)

// fakeShard is a scriptable ShardClient: health level, drain state and a
// per-call classify script are all settable, so routing behaviour is tested
// without spinning up real servers.
type fakeShard struct {
	id string

	mu       sync.Mutex
	level    health.Level
	draining bool
	depth    int
	capacity int
	workers  int
	calls    int
	// fail returns the error for call number n (0-based), nil to answer.
	fail func(n int) error

	block   chan struct{} // non-nil: Classify waits on it...
	entered chan struct{} // ...after signalling here (when non-nil)
}

func newFakeShard(id string) *fakeShard {
	return &fakeShard{id: id, capacity: 64, workers: 2}
}

func (f *fakeShard) ID() string { return f.id }

func (f *fakeShard) Classify(*tensor.Tensor) (serve.Result, error) {
	if f.block != nil {
		if f.entered != nil {
			f.entered <- struct{}{}
		}
		<-f.block
	}
	f.mu.Lock()
	n := f.calls
	f.calls++
	fail := f.fail
	f.mu.Unlock()
	if fail != nil {
		if err := fail(n); err != nil {
			return serve.Result{}, err
		}
	}
	return serve.Result{Class: 7, Agreeing: 3, Proposals: 3}, nil
}

func (f *fakeShard) Level() health.Level {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.level
}

func (f *fakeShard) setLevel(l health.Level) {
	f.mu.Lock()
	f.level = l
	f.mu.Unlock()
}

func (f *fakeShard) Draining() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.draining
}

func (f *fakeShard) QueueDepth() int    { return f.depth }
func (f *fakeShard) QueueCapacity() int { return f.capacity }
func (f *fakeShard) Workers() int       { return f.workers }

func (f *fakeShard) Resize(n int) error {
	f.mu.Lock()
	f.workers = n
	f.mu.Unlock()
	return nil
}

func (f *fakeShard) SetDraining(v bool) {
	f.mu.Lock()
	f.draining = v
	f.mu.Unlock()
}

func (f *fakeShard) Rejuvenate(string) error { return nil }
func (f *fakeShard) Compromise(int) error    { return nil }

func testGateway(t testing.TB, cfg Config, n int) (*Gateway, []*fakeShard) {
	t.Helper()
	gw := New(cfg, nil)
	shards := make([]*fakeShard, n)
	for i := range shards {
		shards[i] = newFakeShard(fmt.Sprintf("shard-%d", i))
		if err := gw.AddShard(shards[i]); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(gw.Close)
	return gw, shards
}

// ownerOf finds the fake shard owning key.
func ownerOf(gw *Gateway, shards []*fakeShard, key string) *fakeShard {
	id := gw.ring.Lookup(key)
	for _, s := range shards {
		if s.id == id {
			return s
		}
	}
	return nil
}

// keyFor finds a key owned by shard id.
func keyFor(t *testing.T, gw *Gateway, id string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("probe:%d", i)
		if gw.ring.Lookup(k) == id {
			return k
		}
	}
	t.Fatalf("no key found for %s", id)
	return ""
}

func TestPlanHealthOrdering(t *testing.T) {
	gw, shards := testGateway(t, Config{FailoverDepth: 3}, 4)
	key := keyFor(t, gw, "shard-0")
	owner := ownerOf(gw, shards, key)

	// All healthy: the hash owner leads the plan.
	plan := gw.Plan(key)
	if len(plan) != 3 || plan[0].ID() != owner.id {
		t.Fatalf("healthy plan should lead with owner %s: %v", owner.id, planIDs(plan))
	}

	// Degraded owner: deprioritised but still present.
	owner.setLevel(health.Degraded)
	plan = gw.Plan(key)
	if plan[0].ID() == owner.id {
		t.Fatalf("degraded owner still leads the plan: %v", planIDs(plan))
	}
	if !contains(planIDs(plan), owner.id) {
		t.Fatalf("degraded owner dropped from the plan entirely: %v", planIDs(plan))
	}

	// Critical owner: last resort only.
	owner.setLevel(health.Critical)
	plan = gw.Plan(key)
	if plan[len(plan)-1].ID() != owner.id {
		t.Fatalf("critical owner should be last: %v", planIDs(plan))
	}

	// Draining healthy owner: also deprioritised.
	owner.setLevel(health.Healthy)
	owner.SetDraining(true)
	plan = gw.Plan(key)
	if plan[0].ID() == owner.id {
		t.Fatalf("draining owner still leads the plan: %v", planIDs(plan))
	}

	// Every shard critical, owner draining: the drain still steers traffic,
	// so the owner comes after the critical shards, which keep ring order.
	for _, s := range shards {
		s.setLevel(health.Critical)
	}
	plan = gw.Plan(key)
	succ := gw.ring.Successors(key, 3)
	want := []string{succ[1], succ[2], succ[0]}
	if got := planIDs(plan); !reflect.DeepEqual(got, want) {
		t.Fatalf("all critical, owner draining: plan %v, want %v", got, want)
	}
}

func TestClassifyFailoverAndBudget(t *testing.T) {
	gw, shards := testGateway(t, Config{FailoverDepth: 3, RetryRatio: 0.1, RetryBurst: 1}, 3)
	key := keyFor(t, gw, "shard-0")
	owner := ownerOf(gw, shards, key)
	owner.fail = func(int) error { return serve.ErrQueueFull }

	// First request: the burst allows one failover to the ring successor.
	res, info, err := gw.Classify(key, "c1", nil)
	if err != nil {
		t.Fatalf("failover should have answered: %v", err)
	}
	if res.Class != 7 || len(info.Attempts) != 2 || info.Attempts[0] != owner.id {
		t.Fatalf("unexpected route %+v", info)
	}
	if info.Shard == owner.id {
		t.Fatalf("answer attributed to the failing owner: %+v", info)
	}

	// Second request: budget dry (burst 1 spent, deposits only 0.1/request),
	// so the walk stops after the failing owner.
	_, info, err = gw.Classify(key, "c1", nil)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
	if len(info.Attempts) != 1 {
		t.Fatalf("budget-dry request should stop after one attempt: %+v", info)
	}

	// A different client has its own untouched budget.
	if _, _, err := gw.Classify(key, "c2", nil); err != nil {
		t.Fatalf("fresh client should fail over: %v", err)
	}
}

func TestClassifyShedsAtMaxInflight(t *testing.T) {
	gw, shards := testGateway(t, Config{MaxInflight: 1}, 1)
	shards[0].block = make(chan struct{})
	shards[0].entered = make(chan struct{}, 1)

	done := make(chan error, 1)
	go func() {
		_, _, err := gw.Classify("k1", "", nil)
		done <- err
	}()
	<-shards[0].entered // the first request is now inside the shard
	if _, _, err := gw.Classify("k2", "", nil); !errors.Is(err, ErrShed) {
		t.Fatalf("want ErrShed, got %v", err)
	}
	close(shards[0].block)
	if err := <-done; err != nil {
		t.Fatalf("blocked request should have answered: %v", err)
	}
}

// TestFailoverDeterminism pins the acceptance property: the same ring
// membership, key sequence and failure schedule produce an identical routing
// trace on an independently built gateway.
func TestFailoverDeterminism(t *testing.T) {
	run := func() []RouteInfo {
		gw := New(Config{FailoverDepth: 3, RetryRatio: 1, RetryBurst: 8}, nil)
		defer gw.Close()
		for i := 0; i < 4; i++ {
			f := newFakeShard(fmt.Sprintf("shard-%d", i))
			if i == 1 {
				// Scripted failure schedule: shard-1 rejects calls 5..25.
				f.fail = func(n int) error {
					if n >= 5 && n <= 25 {
						return serve.ErrQueueFull
					}
					return nil
				}
			}
			if err := gw.AddShard(f); err != nil {
				t.Fatal(err)
			}
		}
		var trace []RouteInfo
		for i := 0; i < 300; i++ {
			_, info, err := gw.Classify(fmt.Sprintf("class:%d:%d", i%43, i), "det", nil)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			trace = append(trace, info)
		}
		return trace
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if !reflect.DeepEqual(a[i], b[i]) {
				t.Fatalf("routing traces diverge at request %d: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
	// The schedule must actually have exercised failover.
	failovers := 0
	for _, info := range a {
		if len(info.Attempts) > 1 {
			failovers++
		}
	}
	if failovers == 0 {
		t.Fatal("failure schedule produced no failovers — the test proves nothing")
	}
}

func TestClassifyNoShards(t *testing.T) {
	gw := New(Config{}, nil)
	defer gw.Close()
	if _, _, err := gw.Classify("k", "", nil); !errors.Is(err, ErrNoShards) {
		t.Fatalf("want ErrNoShards, got %v", err)
	}
}

func TestRouteKeyStable(t *testing.T) {
	c := 7
	a := RouteKey(&serve.ClassifyRequest{Class: &c, Seed: 3})
	b := RouteKey(&serve.ClassifyRequest{Class: &c, Seed: 3})
	if a != b {
		t.Fatalf("route key not stable: %q vs %q", a, b)
	}
	other := RouteKey(&serve.ClassifyRequest{Class: &c, Seed: 4})
	if a == other {
		t.Fatalf("distinct requests share a key %q", a)
	}
	img1 := RouteKey(&serve.ClassifyRequest{Image: []float32{1, 2, 3}})
	img2 := RouteKey(&serve.ClassifyRequest{Image: []float32{1, 2, 4}})
	if img1 == img2 {
		t.Fatal("distinct images share a key")
	}
	// The key of a client image is pinned: the same on every architecture,
	// negative and out-of-range pixels included.
	got := RouteKey(&serve.ClassifyRequest{Image: []float32{-1, 0.25, 1e20}})
	if want := "img:c7fdd607dd656715"; got != want {
		t.Fatalf("route key %q, want %q", got, want)
	}
}

func planIDs(plan []ShardClient) []string {
	out := make([]string, len(plan))
	for i, sc := range plan {
		out[i] = sc.ID()
	}
	return out
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
