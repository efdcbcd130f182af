package serve

import (
	"cmp"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvml/internal/core"
	"mvml/internal/health"
	"mvml/internal/nn"
	"mvml/internal/obs"
	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

func TestResizeWorkers(t *testing.T) {
	s := newTestServer(t, testConfig(), nil)
	if got := s.Workers(); got != 2 {
		t.Fatalf("initial workers %d, want 2", got)
	}

	if err := s.ResizeWorkers(4); err != nil {
		t.Fatal(err)
	}
	if got := s.Workers(); got != 4 {
		t.Fatalf("after grow: %d workers, want 4", got)
	}
	versions, _ := s.Status()
	for _, v := range versions {
		if v.Workers != 4 {
			t.Fatalf("version %s reports %d workers, want 4", v.Name, v.Workers)
		}
	}

	if err := s.ResizeWorkers(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Workers(); got != 1 {
		t.Fatalf("after shrink: %d workers, want 1", got)
	}

	// The resized pools must still answer with the full ensemble.
	res, err := s.Classify(testImage(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Proposals != 3 || res.Agreeing != 3 {
		t.Fatalf("resized server lost ensemble agreement: %+v", res)
	}

	if err := s.ResizeWorkers(0); err == nil {
		t.Fatal("resize to zero workers accepted")
	}
}

// TestResizeKeepsCompromisedVersionUniform: an arena added while its version
// is compromised packs the version's one (faulted) weight set, not the
// pristine safe store — a version answers the same whichever arena serves
// the batch — and rejuvenation still heals it.
func TestResizeKeepsCompromisedVersionUniform(t *testing.T) {
	s := newTestServer(t, testConfig(), nil)
	if err := s.Compromise(0); err != nil {
		t.Fatal(err)
	}
	if err := s.ResizeWorkers(4); err != nil {
		t.Fatal(err)
	}
	// With version 0 compromised (on all four arenas), every decided
	// request is a clean 2-of-3: the healthy pair always agrees and the voter
	// never sees intra-version disagreement.
	for i := 0; i < 16; i++ {
		res, err := s.Classify(testImage(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Proposals == 3 && res.Agreeing != 2 && res.Agreeing != 3 {
			t.Fatalf("request %d: arenas disagree within a version? %+v", i, res)
		}
	}
	// Rejuvenation restores the pristine weights for every arena, grown
	// ones included.
	if err := s.Rejuvenate(0, RejuvManual); err != nil {
		t.Fatal(err)
	}
	if !classifyUntil(t, s, 32, func(r Result) bool { return r.Agreeing == 3 }) {
		t.Fatal("full agreement not restored after rejuvenating the resized pool")
	}
}

// TestOneNetworkPerVersion counts network constructions: serve.New builds
// exactly one per version however many arenas it has, and growing the
// pools builds none — a "worker" is an arena, not a copy of the model.
func TestOneNetworkPerVersion(t *testing.T) {
	var built atomic.Int64
	cfg := testConfig()
	cfg.WorkersPerVersion = 1
	cfg.NewNetwork = func(v int, r *xrand.Rand) (*nn.Network, error) {
		built.Add(1)
		return tinyNet(v, r)
	}
	s := newTestServer(t, cfg, nil)
	if got := built.Load(); got != int64(cfg.Versions) {
		t.Fatalf("serve.New built %d networks for %d versions", got, cfg.Versions)
	}
	if err := s.ResizeWorkers(3); err != nil {
		t.Fatal(err)
	}
	if got := built.Load(); got != int64(cfg.Versions) {
		t.Fatalf("growing 1 → 3 arenas built %d more networks", got-int64(cfg.Versions))
	}
	if res, err := s.Classify(testImage(0)); err != nil || res.Agreeing != 3 {
		t.Fatalf("grown pools: %+v, %v", res, err)
	}
}

// TestTwoWorkersShareOneNetwork runs two forwards of a pool at the same
// time on the real convolutional ensemble: two batches are submitted before
// either answer is gathered, the first time on cold arenas. Both forwards
// must answer alike; a compromise must change both answers the same way and
// rejuvenation must bring both back to the baseline — one weight set, two
// arenas, no stale panels in either.
func TestTwoWorkersShareOneNetwork(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InjectCount = 64
	s := newTestServer(t, cfg, nil)
	images := make([]*tensor.Tensor, 8)
	for i := range images {
		images[i] = testImage(i)
	}
	batch, err := nn.Stack(images)
	if err != nil {
		t.Fatal(err)
	}
	// both returns the answer the two arenas of p agree on.
	both := func(p *pool) []int {
		t.Helper()
		out := make(chan versionAnswer, 2)
		for w := 0; w < 2; w++ {
			if !p.trySubmit(batchJob{batch: batch, out: out}) {
				t.Fatalf("%s declined job %d with two idle arenas", p.name, w)
			}
		}
		a, b := <-out, <-out
		if a.err != nil || b.err != nil {
			t.Fatalf("%s: %v, %v", p.name, a.err, b.err)
		}
		if !slices.Equal(a.preds, b.preds) {
			t.Fatalf("%s: two arenas of one version disagree: %v vs %v", p.name, a.preds, b.preds)
		}
		return a.preds
	}
	for v, p := range s.pools {
		baseline := both(p)
		if err := s.Compromise(v); err != nil {
			t.Fatal(err)
		}
		if slices.Equal(both(p), baseline) {
			t.Fatalf("%s: compromise changed no answer — stale packed weights, or the fault is too weak for this test", p.name)
		}
		if err := s.Rejuvenate(v, RejuvManual); err != nil {
			t.Fatal(err)
		}
		if got := both(p); !slices.Equal(got, baseline) {
			t.Fatalf("%s: after rejuvenation %v, baseline %v", p.name, got, baseline)
		}
	}
}

// TestLevelFromPools: a shard's routing level reads its pools alone. A
// tripped window degrades it, a second version out of rotation leaves no
// healthy majority, and the drain's window reset brings it back to healthy.
func TestLevelFromPools(t *testing.T) {
	cfg := testConfig()
	cfg.DivergenceWindow = 4
	s := newTestServer(t, cfg, nil)
	if lvl := s.Level(); lvl != health.Healthy {
		t.Fatalf("fresh server reads %s, want healthy", lvl)
	}
	if err := s.Compromise(0); err != nil {
		t.Fatal(err)
	}
	// Holding rejuvMu keeps the drain the trip asks for from starting.
	s.rejuvMu.Lock()
	held := true
	defer func() {
		if held {
			s.rejuvMu.Unlock()
		}
	}()
	if !classifyUntil(t, s, 500, func(Result) bool { return s.pools[0].policyState() == core.NonFunctional }) {
		t.Fatal("compromised version's window never tripped")
	}
	if lvl := s.Level(); lvl != health.Degraded {
		t.Fatalf("one tripped version of three reads %s, want degraded", lvl)
	}
	if !s.pools[1].quiesce(poolDraining) {
		t.Fatal("pool 1 halted")
	}
	if lvl := s.Level(); lvl != health.Critical {
		t.Fatalf("one healthy version of three reads %s, want critical", lvl)
	}
	s.pools[1].reopen()
	s.rejuvMu.Unlock()
	held = false
	for deadline := time.Now().Add(5 * time.Second); s.Level() != health.Healthy; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("level %s 5 s after the drain was released", s.Level())
		}
	}
	if versions, _ := s.Status(); versions[0].Rejuvenations != 1 {
		t.Fatalf("healthy again after %d rejuvenations of version 0, want 1", versions[0].Rejuvenations)
	}
}

func TestDrainingFlag(t *testing.T) {
	rt := obs.NewRuntime(0)
	cfg := testConfig()
	cfg.ShardLabel = "shard-x"
	s := newTestServer(t, cfg, rt)

	if s.Draining() {
		t.Fatal("fresh server reports draining")
	}
	s.SetDraining(true)
	if !s.Draining() {
		t.Fatal("drain flag did not stick")
	}
	// Draining is advisory: the shard keeps answering what reaches it.
	if _, err := s.Classify(testImage(0)); err != nil {
		t.Fatalf("draining server refused a request: %v", err)
	}
	s.SetDraining(false)
	if s.Draining() {
		t.Fatal("drain flag did not clear")
	}
}

// TestShardLabelOnSpans pins the multi-shard attribution contract: with a
// ShardLabel configured, every span the server emits carries the label, so a
// shared sink stays filterable per shard; without one, no span carries it.
func TestShardLabelOnSpans(t *testing.T) {
	for _, label := range []string{"", "shard-7"} {
		rt := obs.NewRuntime(0)
		cfg := testConfig()
		cfg.ShardLabel = label
		s := newTestServer(t, cfg, rt)
		if _, err := s.Classify(testImage(1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Compromise(0); err != nil {
			t.Fatal(err)
		}
		if err := s.Rejuvenate(0, RejuvManual); err != nil {
			t.Fatal(err)
		}
		// The batcher ends a request's trace after it has replied, so the
		// reply can outrun the publish; Close waits for the batcher.
		s.Close()
		recs := rt.Spans().Spans()
		kinds := map[string]bool{}
		for _, r := range recs {
			kinds[r.Kind] = true
		}
		if !kinds["request"] || !kinds["compromise"] || !kinds["rejuvenation"] {
			t.Fatalf("span kinds %v, want request, compromise and rejuvenation among them", kinds)
		}
		for _, r := range recs {
			got, ok := r.Attrs["shard"]
			if label == "" && ok {
				t.Fatalf("unlabelled server emitted shard attr on %s span", r.Kind)
			}
			if label != "" && (!ok || got != label) {
				t.Fatalf("%s span missing shard label: attrs=%v", r.Kind, r.Attrs)
			}
		}
	}
}

// TestCompromiseIsOneEventSpan pins the serving side of events-as-spans: a
// compromise — the one lifecycle op with no interval of its own — publishes
// exactly one zero-duration root span naming the version.
func TestCompromiseIsOneEventSpan(t *testing.T) {
	rt := obs.NewRuntime(0)
	s := newTestServer(t, testConfig(), rt)
	before := rt.Spans().Published()
	if err := s.Compromise(1); err != nil {
		t.Fatal(err)
	}
	if got := rt.Spans().Published() - before; got != 1 {
		t.Fatalf("Compromise published %d spans, want 1", got)
	}
	versions, _ := s.Status()
	var found []obs.SpanRecord
	for _, r := range rt.Spans().Spans() {
		if r.Kind == "compromise" {
			found = append(found, r)
		}
	}
	if len(found) != 1 || found[0].Parent != 0 || found[0].Start != found[0].End ||
		found[0].AttrString("version") != versions[1].Name {
		t.Fatalf("compromise spans %+v, want one zero-duration root naming version 1", found)
	}
}

// gateLayer is a parameter-free layer whose forward waits for release: it
// holds a forward, and so its arena, for as long as a test wants.
type gateLayer struct {
	nn.Layer
	release <-chan struct{}
}

func (g gateLayer) ForwardBatchArena(x *tensor.Tensor, ar *nn.InferenceArena) (*tensor.Tensor, error) {
	<-g.release
	return g.Layer.ForwardBatchArena(x, ar)
}

// TestCloseWaitsForLateForwards: a forward that outlives its batch's deadline
// still holds an arena, and Close must not return before every such forward
// has given its arena back — nothing of a closed server may still run.
func TestCloseWaitsForLateForwards(t *testing.T) {
	release := make(chan struct{})
	cfg := testConfig()
	cfg.RequestTimeout = time.Millisecond // far below a forward held at the gate
	cfg.NewNetwork = func(v int, r *xrand.Rand) (*nn.Network, error) {
		net, err := tinyNet(v, r)
		if err == nil {
			net.Layers = append([]nn.Layer{gateLayer{nn.NewFlatten("gate"), release}}, net.Layers...)
		}
		return net, err
	}
	s, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Classify(testImage(0)); !errors.Is(err, ErrNoProposals) {
		t.Fatalf("every forward held past the deadline: got %v, want ErrNoProposals", err)
	}
	versions, _ := s.Status()
	for _, v := range versions {
		if v.InFlight != 1 {
			t.Fatalf("%s: %d forwards in flight after the deadline, want 1", v.Name, v.InFlight)
		}
	}
	// Close has to outwait the release; one that does not returns first.
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	s.Close()
	versions, _ = s.Status()
	for _, v := range versions {
		if v.InFlight != 0 {
			t.Fatalf("%s: Close returned with %d forwards in flight", v.Name, v.InFlight)
		}
	}
}

// TestOneForwardPerVersionClosedLoop measures how many arenas a version
// uses under a closed loop at the default deadline: dispatch gathers every
// answer before the batcher takes the next batch, so a second arena would
// serve only a batch whose forward missed its deadline. No two forward spans
// of one version may overlap; the peak per version is logged.
func TestOneForwardPerVersionClosedLoop(t *testing.T) {
	rt := obs.NewRuntime(0)
	cfg := testConfig()
	cfg.RequestTimeout = DefaultConfig().RequestTimeout
	s := newTestServer(t, cfg, rt)
	const clients, perClient = 16, 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := s.Classify(testImage(c*perClient + i)); err != nil && !errors.Is(err, ErrQueueFull) {
					t.Errorf("client %d request %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	s.Close() // the batcher publishes a trace after its reply

	// Every member request of a batch carries a copy of its forward spans.
	type interval struct{ start, end float64 }
	forwards := map[string]map[interval]bool{}
	for _, r := range rt.Spans().Spans() {
		if r.Kind != "forward" {
			continue
		}
		v := r.AttrString("version")
		if forwards[v] == nil {
			forwards[v] = map[interval]bool{}
		}
		forwards[v][interval{r.Start, r.End}] = true
	}
	if len(forwards) != cfg.Versions {
		t.Fatalf("forward spans of %d versions, want %d", len(forwards), cfg.Versions)
	}
	for v, set := range forwards {
		// Sweep the interval ends in time order, an end before a start at
		// the same instant: touching spans do not overlap.
		type edge struct {
			t     float64
			delta int
		}
		var edges []edge
		for iv := range set {
			edges = append(edges, edge{iv.start, 1}, edge{iv.end, -1})
		}
		slices.SortFunc(edges, func(a, b edge) int {
			if a.t != b.t {
				return cmp.Compare(a.t, b.t)
			}
			return a.delta - b.delta
		})
		peak, inUse := 0, 0
		for _, e := range edges {
			inUse += e.delta
			peak = max(peak, inUse)
		}
		t.Logf("%s: %d forwards, peak %d of %d arenas in use", v, len(set), peak, cfg.WorkersPerVersion)
		if peak > 1 {
			t.Errorf("%s: %d forwards overlapped at the default deadline", v, peak)
		}
	}
}
