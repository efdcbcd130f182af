package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mvml/internal/nn"
	"mvml/internal/obs"
	"mvml/internal/signs"
	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

// tinyNet builds a minimal classifier. Every version gets IDENTICAL weights
// (a fixed internal seed), so the healthy ensemble always agrees 3-of-3 and
// tests can reason exactly about voting, degradation and divergence.
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

// testConfig is a fast configuration over the tiny identical networks.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NewNetwork = tinyNet
	cfg.InjectLayer = 0  // the tiny net's only parameterised layer
	cfg.InjectCount = 64 // enough perturbed weights to reliably flip argmax
	cfg.WorkersPerVersion = 2
	cfg.MaxBatch = 4
	cfg.RequestTimeout = 2 * time.Second
	return cfg
}

func newTestServer(t *testing.T, cfg Config, rt *obs.Runtime) *Server {
	t.Helper()
	s, err := New(cfg, rt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// testImage renders a deterministic sign image.
func testImage(i int) *tensor.Tensor {
	r := xrand.New(uint64(i)).Split("test-image", uint64(i))
	return signs.Render(i%signs.NumClasses, r, signs.DefaultConfig())
}

func TestClassifyHealthyFullMajority(t *testing.T) {
	s := newTestServer(t, testConfig(), nil)
	res, err := s.Classify(testImage(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Proposals != 3 || res.Agreeing != 3 {
		t.Fatalf("healthy identical versions must agree 3-of-3, got %+v", res)
	}
	if res.Degraded {
		t.Fatalf("healthy answer tagged degraded: %+v", res)
	}
	if res.Class < 0 || res.Class >= signs.NumClasses {
		t.Fatalf("class %d out of range", res.Class)
	}
}

func TestClassifyRejectsBadImage(t *testing.T) {
	s := newTestServer(t, testConfig(), nil)
	if _, err := s.Classify(tensor.New(3)); err == nil {
		t.Fatal("wrong-size image accepted")
	}
	if _, err := s.Classify(nil); err == nil {
		t.Fatal("nil image accepted")
	}
}

// TestResponsesUnchangedByInstrumentation is the determinism guarantee the
// telemetry layer promises: the same request sequence against a fully
// instrumented server (metrics, spans and the per-layer profiler) and an
// uninstrumented one yields identical answers.
func TestResponsesUnchangedByInstrumentation(t *testing.T) {
	rt := obs.NewRuntime(64)
	instCfg := testConfig()
	instCfg.ProfileLayers = true
	bare := newTestServer(t, testConfig(), nil)
	inst := newTestServer(t, instCfg, rt)

	const n = 24
	for i := 0; i < n; i++ {
		img := testImage(i)
		a, errA := bare.Classify(img)
		b, errB := inst.Classify(img)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("request %d: error mismatch %v vs %v", i, errA, errB)
		}
		if a.Class != b.Class || a.Degraded != b.Degraded ||
			a.Agreeing != b.Agreeing || a.Proposals != b.Proposals {
			t.Fatalf("request %d: instrumented answer differs: %+v vs %+v", i, a, b)
		}
	}
	if got := rt.Metrics().Counter("mvserve_requests_total").Value(); got != n {
		t.Fatalf("instrumented server counted %d requests, want %d", got, n)
	}
	var b strings.Builder
	if err := rt.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mvserve_requests_total", "mvserve_batch_size", "mvserve_e2e_latency_seconds",
		"mvserve_queue_depth", "mvserve_layer_seconds", "mvserve_gemm_dispatch_total",
		"mvserve_gemm_bytes_total",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %s:\n%s", want, b.String())
		}
	}
}

// TestRequestWaterfall submits traced requests and reconstructs one full
// waterfall from the span ring: a request root with admission, queue_wait,
// batch, vote and reply children, and one forward span per version parented
// under the batch interval.
func TestRequestWaterfall(t *testing.T) {
	rt := obs.NewRuntime(256)
	s := newTestServer(t, testConfig(), rt)

	const n = 6
	for i := 0; i < n; i++ {
		if _, err := s.Classify(testImage(i)); err != nil {
			t.Fatal(err)
		}
	}

	// The batcher ends a request's trace after it has replied, so the last
	// reply can outrun its publish; Close waits for the batcher.
	s.Close()
	byTrace := map[uint64][]obs.SpanRecord{}
	for _, r := range rt.Spans().Spans() {
		byTrace[r.Trace] = append(byTrace[r.Trace], r)
	}
	if len(byTrace) != n {
		t.Fatalf("got %d traces, want %d", len(byTrace), n)
	}
	for trace, recs := range byTrace {
		var root obs.SpanRecord
		byKind := map[string][]obs.SpanRecord{}
		for _, r := range recs {
			byKind[r.Kind] = append(byKind[r.Kind], r)
			if r.Kind == "request" {
				root = r
			}
		}
		if root.ID == 0 {
			t.Fatalf("trace %d has no request root", trace)
		}
		for _, kind := range []string{"admission", "queue_wait", "batch", "vote", "reply"} {
			rs := byKind[kind]
			if len(rs) != 1 {
				t.Fatalf("trace %d: %d %q spans, want 1", trace, len(rs), kind)
			}
			if rs[0].Parent != root.ID {
				t.Fatalf("trace %d: %q parented under %d, want root %d", trace, kind, rs[0].Parent, root.ID)
			}
			if rs[0].End < rs[0].Start {
				t.Fatalf("trace %d: %q ends before it starts: %+v", trace, kind, rs[0])
			}
		}
		batch := byKind["batch"][0]
		forwards := byKind["forward"]
		if len(forwards) != 3 {
			t.Fatalf("trace %d: %d forward spans, want one per version", trace, len(forwards))
		}
		versions := map[any]bool{}
		for _, f := range forwards {
			if f.Parent != batch.ID {
				t.Fatalf("trace %d: forward parented under %d, want batch %d", trace, f.Parent, batch.ID)
			}
			versions[f.Attrs["version"]] = true
		}
		if len(versions) != 3 {
			t.Fatalf("trace %d: forward version attrs not distinct: %v", trace, versions)
		}
		if _, ok := root.Attrs["class"]; !ok {
			t.Fatalf("trace %d: root missing class attr: %v", trace, root.Attrs)
		}
		// The stages tile the request in order.
		adm, qw := byKind["admission"][0], byKind["queue_wait"][0]
		if adm.End > qw.Start || qw.End > batch.Start {
			t.Fatalf("trace %d: stages out of order: admission=%+v queue_wait=%+v batch=%+v",
				trace, adm, qw, batch)
		}
	}
}

// TestQueueFullRejects holds the batcher on a gate so the admission queue
// fills deterministically; the overflow submit must reject immediately with
// ErrQueueFull (not block), and queued requests must still be answered after
// the gate opens.
func TestQueueFullRejects(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	cfg.batchGate = make(chan struct{}, 4)
	s := newTestServer(t, cfg, nil)

	r1, err := s.submit(testImage(1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.submit(testImage(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.submit(testImage(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: got %v, want ErrQueueFull", err)
	}

	cfg.batchGate <- struct{}{}
	cfg.batchGate <- struct{}{}
	for i, req := range []*request{r1, r2} {
		res := <-req.done
		if res.Err != nil {
			t.Fatalf("queued request %d failed after gate opened: %v", i, res.Err)
		}
	}
}

// TestBatchClosesOnEmptyQueue pins the batching policy: a batch is whatever is
// already queued when the batcher looks, up to MaxBatch, and nothing on the
// path waits for more. The gate makes "already queued" deterministic: every
// request is admitted before the first token, and one token is one batch.
func TestBatchClosesOnEmptyQueue(t *testing.T) {
	maxBatch := testConfig().MaxBatch
	for _, tc := range []struct {
		name     string
		queued   int
		wantSize []float64 // batch sizes, largest first
	}{
		{"partial batch dispatched whole", maxBatch - 1, []float64{float64(maxBatch - 1)}},
		{"overflow split at MaxBatch", maxBatch + 3, []float64{float64(maxBatch), 3}},
		{"lone request served alone", 1, []float64{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := obs.NewRuntime(64) // a registry, so mvserve_batch_size is a live histogram
			cfg := testConfig()
			cfg.batchGate = make(chan struct{}, len(tc.wantSize))
			s := newTestServer(t, cfg, rt)
			reqs := make([]*request, tc.queued)
			for i := range reqs {
				var err error
				if reqs[i], err = s.submit(testImage(i)); err != nil {
					t.Fatal(err)
				}
			}
			for range tc.wantSize {
				cfg.batchGate <- struct{}{}
			}
			for i, req := range reqs {
				if res := <-req.done; res.Err != nil {
					t.Fatalf("request %d: %v", i, res.Err)
				}
			}
			// Every answer is in, so every batch was observed; the batcher is
			// back at the gate with no token, so there will be no more.
			h := s.m.batchSize
			if h.Count() != uint64(len(tc.wantSize)) || h.Sum() != float64(tc.queued) {
				t.Fatalf("batches: count %d sum %v, want %d batches over %d requests",
					h.Count(), h.Sum(), len(tc.wantSize), tc.queued)
			}
			// The bounds are 1, 2, …, 16: bucket i counts the batches of size i+1.
			want := make([]uint64, len(h.Bounds())+1)
			for _, size := range tc.wantSize {
				want[int(size)-1]++
			}
			if got := h.BucketCounts(); !slices.Equal(got, want) {
				t.Fatalf("batch-size buckets %v, want %v (sizes %v)", got, want, tc.wantSize)
			}
		})
	}
}

// TestDegradedOnPartialEnsemble: with two versions out of rotation, the
// single remaining proposal is accepted (rule R.3) and tagged degraded.
func TestDegradedOnPartialEnsemble(t *testing.T) {
	s := newTestServer(t, testConfig(), nil)
	for _, v := range []int{1, 2} {
		s.pools[v].mu.Lock()
		s.pools[v].state = poolDraining
		s.pools[v].mu.Unlock()
	}
	res, err := s.Classify(testImage(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Proposals != 1 {
		t.Fatalf("single-version answer must be degraded R.3, got %+v", res)
	}
	versions, _ := s.Status()
	if versions[1].State != "draining" || versions[0].State != "serving" {
		t.Fatalf("status does not reflect pool states: %+v", versions)
	}
	for _, v := range []int{1, 2} {
		s.pools[v].mu.Lock()
		s.pools[v].state = poolServing
		s.pools[v].mu.Unlock()
	}
}

// classifyUntil runs requests until pred holds, bounded by n attempts.
func classifyUntil(t *testing.T, s *Server, n int, pred func(Result) bool) bool {
	t.Helper()
	for i := 0; i < n; i++ {
		res, err := s.Classify(testImage(i))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if pred(res) {
			return true
		}
	}
	return false
}

// TestCompromiseOutvotedAndCounted: a compromised minority version cannot
// change the served answers (2-of-3 majority holds) but its divergence is
// observed — the signal the reactive trigger feeds on.
func TestCompromiseOutvotedAndCounted(t *testing.T) {
	cfg := testConfig()
	cfg.DivergenceThreshold = 1 // keep the reactive trigger out of this test
	s := newTestServer(t, cfg, nil)
	if err := s.Compromise(0); err != nil {
		t.Fatal(err)
	}
	diverged := classifyUntil(t, s, 200, func(res Result) bool {
		if res.Err != nil || res.Degraded {
			t.Fatalf("compromised minority must not degrade answers: %+v", res)
		}
		return s.pools[0].divergenceRate() > 0
	})
	if !diverged {
		t.Fatal("compromised version never diverged from the majority")
	}
	// Manual rejuvenation restores full agreement.
	if err := s.Rejuvenate(0, RejuvManual); err != nil {
		t.Fatal(err)
	}
	if !classifyUntil(t, s, 50, func(res Result) bool { return res.Agreeing == 3 }) {
		t.Fatal("no 3-of-3 agreement after rejuvenation")
	}
}

// TestReactiveRejuvenation: sustained divergence past the threshold drains
// and restores the offending version automatically.
func TestReactiveRejuvenation(t *testing.T) {
	rt := obs.NewRuntime(64)
	cfg := testConfig()
	cfg.DivergenceWindow = 8
	cfg.DivergenceThreshold = 0.5
	s := newTestServer(t, cfg, rt)
	if err := s.Compromise(1); err != nil {
		t.Fatal(err)
	}
	reactive := rt.Metrics().Counter("mvserve_rejuvenations_total", "kind", RejuvReactive)
	fired := classifyUntil(t, s, 500, func(res Result) bool {
		if res.Err != nil {
			t.Fatalf("request failed during reactive rejuvenation: %v", res.Err)
		}
		return reactive.Value() > 0
	})
	if !fired {
		t.Fatalf("reactive rejuvenation never fired (divergence %v)", s.pools[1].divergenceRate())
	}
	if !classifyUntil(t, s, 200, func(res Result) bool { return res.Agreeing == 3 }) {
		t.Fatal("version still diverging after reactive rejuvenation")
	}
}

// TestProactiveRejuvenation: the time trigger heals a compromised version
// without any divergence signal. Its victim is a uniform draw over the
// in-rotation versions, so the test waits for a draw to land on version 2.
func TestProactiveRejuvenation(t *testing.T) {
	rt := obs.NewRuntime(64)
	cfg := testConfig()
	cfg.ProactiveInterval = 10 * time.Millisecond
	cfg.DivergenceThreshold = 1 // isolate the proactive path
	s := newTestServer(t, cfg, rt)
	if err := s.Compromise(2); err != nil {
		t.Fatal(err)
	}
	versions, _ := s.Status()
	healed := func() bool {
		for _, r := range rt.Spans().Spans() {
			if r.Kind == "rejuvenation" && r.AttrString("kind") == RejuvProactive &&
				r.AttrString("version") == versions[2].Name {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(5 * time.Second); !healed(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no proactive draw landed on the compromised version in 5 s")
		}
	}
	if !classifyUntil(t, s, 50, func(res Result) bool { return res.Agreeing == 3 }) {
		t.Fatal("compromised version not healed by the proactive trigger")
	}
}

// TestReactiveGoesAheadOfProactive: the server runs the paper's precedence.
// With the proactive trigger ticking every millisecond, a diverging version's
// reactive drain is never overtaken: in the export, no proactive rejuvenation
// starts between a rejuvenation_trigger and the reactive rejuvenation that
// answers it. A proactive draw heals version 1 (and starts its cooldown) long
// before its own answers fill a window, so each gated round first fills the
// window with the disagreements a compromised version produces.
func TestReactiveGoesAheadOfProactive(t *testing.T) {
	rt := obs.NewRuntime(0)
	var export bytes.Buffer
	rt.Spans().SetWriter(&export)
	cfg := testConfig()
	cfg.ProactiveInterval = time.Millisecond
	cfg.DivergenceWindow = 4
	gate := make(chan struct{})
	cfg.batchGate = gate
	s := newTestServer(t, cfg, rt)
	if err := s.Compromise(1); err != nil {
		t.Fatal(err)
	}
	reactive := rt.Metrics().Counter("mvserve_rejuvenations_total", "kind", RejuvReactive)
	for round := 0; reactive.Value() == 0; round++ {
		if round == 200 {
			t.Fatal("no reactive drain in 200 rounds")
		}
		p := s.pools[1]
		p.mu.Lock()
		for i := 0; i < cfg.DivergenceWindow; i++ {
			p.ring.Observe(true)
		}
		p.ring.cooldown = 0
		p.mu.Unlock()
		gate <- struct{}{}
		if _, err := s.Classify(testImage(round)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for s.reacting.Load() {
			time.Sleep(100 * time.Microsecond)
		}
	}
	var triggers, rejuvs []obs.SpanRecord
	for _, r := range closeAndRead(t, rt, &export, s) {
		switch r.Kind {
		case "rejuvenation_trigger":
			triggers = append(triggers, r)
		case "rejuvenation":
			rejuvs = append(rejuvs, r)
		}
	}
	if len(triggers) == 0 {
		t.Fatal("reactive drain without a rejuvenation_trigger span")
	}
	for _, tr := range triggers {
		answer := -1.0
		for _, r := range rejuvs {
			if r.AttrString("kind") == RejuvReactive && r.AttrString("version") == tr.AttrString("version") &&
				r.Start >= tr.Start && (answer < 0 || r.Start < answer) {
				answer = r.Start
			}
		}
		if answer < 0 {
			t.Fatalf("trigger at %v for %s never answered", tr.Start, tr.AttrString("version"))
		}
		for _, r := range rejuvs {
			if r.AttrString("kind") == RejuvProactive && r.Start >= tr.Start && r.Start < answer {
				t.Fatalf("proactive rejuvenation of %s at %v overtook the reactive one triggered at %v",
					r.AttrString("version"), r.Start, tr.Start)
			}
		}
	}
}

// TestRejuvenationUnderLoadZeroFailures is the subsystem's acceptance
// property: rejuvenating every version while concurrent clients hammer the
// server must not fail a single request — degraded answers are allowed,
// errors are not (queue-full rejections would be allowed too, but the
// bounded concurrency here keeps the queue below its depth).
func TestRejuvenationUnderLoadZeroFailures(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 256
	s := newTestServer(t, cfg, nil)

	const clients = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Classify(testImage(c*1000 + i)); err != nil {
					errCh <- fmt.Errorf("client %d request %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}
	for round := 0; round < 3; round++ {
		for v := 0; v < cfg.Versions; v++ {
			if err := s.Rejuvenate(v, RejuvManual); err != nil {
				t.Errorf("rejuvenate %d: %v", v, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

func TestCloseRejectsAndFailsQueued(t *testing.T) {
	cfg := testConfig()
	cfg.batchGate = make(chan struct{}) // batcher never runs
	s, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	req, err := s.submit(testImage(0))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if res := <-req.done; !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("queued request after Close: got %v, want ErrClosed", res.Err)
	}
	if _, err := s.Classify(testImage(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Classify after Close: got %v, want ErrClosed", err)
	}
}

// TestSubmitRacingCloseIsAnswered holds a submitter between admit's closed
// check and the queue send while Close runs to completion, final drain
// included: the request lands in a queue nobody reads any more, and must still
// get its one ErrClosed reply.
func TestSubmitRacingCloseIsAnswered(t *testing.T) {
	cfg := testConfig()
	cfg.batchGate = make(chan struct{}) // batcher never runs
	s, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	req, err := s.admit(testImage(0)) // reads closed == false
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.enqueue(req); err != nil {
		t.Fatalf("enqueue after Close: %v (the queue is empty, the send succeeds)", err)
	}
	select {
	case res := <-req.done:
		if !errors.Is(res.Err, ErrClosed) {
			t.Fatalf("request admitted during Close: got %v, want ErrClosed", res.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request admitted during Close was never answered")
	}
	if n, depth := len(s.queue), s.QueueDepth(); n != 0 || depth != 0 {
		t.Fatalf("after the reply: %d requests queued, depth gauge %d, want 0 and 0", n, depth)
	}
}

// TestCloseUnderLoadAnswersEveryone is the same race left to the scheduler:
// clients submit flat out while Close runs, and every Classify must return —
// an answer or ErrClosed, never a hang.
func TestCloseUnderLoadAnswersEveryone(t *testing.T) {
	s, err := New(testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	var wg sync.WaitGroup
	running := make(chan struct{}, clients) // one send per client, after its first reply
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				_, err := s.Classify(testImage(c*1000 + i))
				if i == 0 {
					running <- struct{}{}
				}
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil && !errors.Is(err, ErrQueueFull) {
					t.Errorf("client %d request %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	for c := 0; c < clients; c++ {
		<-running
	}
	s.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a Classify that raced Close never returned")
	}
}

func TestRejuvenateValidatesVersion(t *testing.T) {
	s := newTestServer(t, testConfig(), nil)
	if err := s.Rejuvenate(-1, RejuvManual); err == nil {
		t.Fatal("negative version accepted")
	}
	if err := s.Rejuvenate(99, RejuvManual); err == nil {
		t.Fatal("out-of-range version accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Versions = 0 },
		func(c *Config) { c.WorkersPerVersion = 0 },
		func(c *Config) { c.QueueDepth = 0 },
		func(c *Config) { c.MaxBatch = 0 },
		func(c *Config) { c.RequestTimeout = 0 },
		func(c *Config) { c.ProactiveInterval = -time.Second },
		func(c *Config) { c.DivergenceWindow = 0 },
		func(c *Config) { c.DivergenceThreshold = 0 },
		func(c *Config) { c.DivergenceThreshold = 1.5 },
		func(c *Config) { c.TrainEpochs = -1 },
		func(c *Config) { c.TrainEpochs, c.Dataset.TrainPerClass = 1, 0 },
		func(c *Config) { c.Int8Versions, c.Dataset.TestPerClass = []int{0}, 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// TestRealEnsembleServes exercises the default three-architecture ensemble
// (untrained, so construction is fast) end to end.
func TestRealEnsembleServes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WorkersPerVersion = 1
	s := newTestServer(t, cfg, nil)
	res, err := s.Classify(testImage(0))
	if err != nil {
		t.Fatal(err)
	}
	// Three diverse untrained architectures rarely agree; whatever the vote
	// does, the request must be answered, not failed.
	if res.Proposals == 0 {
		t.Fatalf("no proposals from the real ensemble: %+v", res)
	}
}

func TestDivergenceRing(t *testing.T) {
	r := newDivergenceRing(4)
	if _, full := r.Rate(); full {
		t.Fatal("empty ring reports full")
	}
	r.Observe(true)
	r.Observe(false)
	if rate, full := r.Rate(); full || rate != 0.5 {
		t.Fatalf("part-filled ring: rate %.2f full %v, want 0.50 false", rate, full)
	}
	r.Observe(true)
	r.Observe(true)
	if rate, full := r.Rate(); !full || rate != 0.75 {
		t.Fatalf("filled ring: rate %.2f full %v, want 0.75 true", rate, full)
	}
	// Eviction: the oldest (true) slides out.
	r.Observe(false)
	if rate, _ := r.Rate(); rate != 0.5 {
		t.Fatalf("after eviction: rate %.2f, want 0.50", rate)
	}
	if r.cooldown != 0 {
		t.Fatalf("cooldown %d before any reset, want 0", r.cooldown)
	}
	r.Reset()
	if rate, full := r.Rate(); rate != 0 || full {
		t.Fatalf("after reset: rate %.2f full %v, want 0 false", rate, full)
	}
	// The cooldown runs for cooldownWindows windows of decided rounds.
	for i := 0; i < cooldownWindows*4; i++ {
		if r.cooldown == 0 {
			t.Fatalf("cooldown over after %d rounds, want %d", i, cooldownWindows*4)
		}
		r.Observe(true)
	}
	if rate, full := r.Rate(); r.cooldown != 0 || !full || rate != 1 {
		t.Fatalf("after the cooldown: cooldown %d, rate %.2f full %v", r.cooldown, rate, full)
	}
}

// trainedWeightHashes pins serve's start-up training of the three real
// architectures (Seed 38, 2 training images per class, 3 epochs): the
// per-version train stream, the epoch shuffle, full batches of 32 from lr
// 0.04 and its step decay at epoch 2 all feed the hash.
var trainedWeightHashes = []string{
	"73ebbd66838560a51bd1ba6241908d81142416c4dbf62a04827be912d7f27e4c", // alexnet-small
	"fa35f8ab8aa56aa593caf5aa148e6de4c603811bd5a842332bf0e1596a840f9a", // resnet-small
	"518991072b72716aab9d2122adc0c7e061caafeb052a25dec68c0fc4a12496bc", // lenet-small
}

func TestStartupTrainingWeightHash(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WorkersPerVersion = 1
	cfg.TrainEpochs = 3
	cfg.Dataset.TrainPerClass, cfg.Dataset.TestPerClass = 2, 0
	s := newTestServer(t, cfg, nil)
	for v, p := range s.pools {
		h := sha256.New()
		var word [4]byte
		for _, w := range p.net.Params() {
			for _, x := range w.Data {
				binary.LittleEndian.PutUint32(word[:], math.Float32bits(x))
				h.Write(word[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != trainedWeightHashes[v] {
			t.Errorf("version %d (%s): trained weight hash %s, want %s", v, p.name, got, trainedWeightHashes[v])
		}
	}
}
