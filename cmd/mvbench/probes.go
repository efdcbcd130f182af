package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"mvml/internal/core"
	"mvml/internal/drivesim"
	"mvml/internal/faultinject"
	"mvml/internal/gateway"
	"mvml/internal/health"
	"mvml/internal/nn"
	"mvml/internal/obs"
	"mvml/internal/obs/tsdb"
	"mvml/internal/reliability"
	"mvml/internal/scenario"
	"mvml/internal/serve"
	"mvml/internal/signs"
	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

// Probes are fixed-iteration loops over one layer's public functions. They
// run after the traced run of the workload whose end-to-end numbers they
// explain, on an otherwise idle process, and report the median of probeReps
// timings so that one preempted repetition does not move the number.
const probeReps = 3

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// perCall times iters calls of fn, probeReps times, and returns the median
// seconds per call.
func perCall(iters int, fn func()) float64 {
	times := make([]float64, probeReps)
	for r := range times {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		times[r] = time.Since(t0).Seconds() / float64(iters)
	}
	return median(times)
}

// probeSet is what the probes of one workload measured, plus free-text notes
// (GEMM shapes, sample counts) that belong next to the numbers.
type probeSet struct {
	values map[string]float64
	notes  []string
}

func newProbeSet() *probeSet { return &probeSet{values: map[string]float64{}} }

func (p *probeSet) set(name string, v float64) { p.values[name] = v }

func (p *probeSet) note(format string, args ...any) {
	p.notes = append(p.notes, fmt.Sprintf(format, args...))
}

// must turns a probe's set-up error into a note and reports whether the
// probe can continue; a failed probe leaves its metrics unreported rather
// than aborting the benchmark.
func (p *probeSet) must(what string, err error) bool {
	if err != nil {
		p.note("probe %s failed: %v", what, err)
		return false
	}
	return true
}

// stackPool stacks the first n pool images into one batch tensor.
func stackPool(f *fixture, n int) (*tensor.Tensor, error) {
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = f.pool[i%len(f.pool)].X
	}
	return nn.Stack(xs)
}

// gemmShape is one GEMM the arena path issues: (m×k)·(k×n).
type gemmShape struct {
	layer   string
	m, n, k int
}

func (g gemmShape) flops() float64 { return 2 * float64(g.m) * float64(g.n) * float64(g.k) }

// layerProfile implements nn.ForwardProfiler: wall seconds per layer name and
// every GEMM shape seen.
type layerProfile struct {
	seconds map[string]float64
	gemms   []gemmShape
}

func (lp *layerProfile) ObserveLayer(layer string, seconds float64, _ int) {
	lp.seconds[layer] += seconds
}

func (lp *layerProfile) ObserveGemm(layer string, m, n, k int) {
	lp.gemms = append(lp.gemms, gemmShape{layer, m, n, k})
}

// layerKinds maps every layer name of net to its nn.layer_share category and
// lists the residual containers, whose reported time includes their bodies.
func layerKinds(layers []nn.Layer, kinds map[string]string, containers map[string][]string) {
	for _, l := range layers {
		switch t := l.(type) {
		case *nn.Conv2D:
			kinds[l.Name()] = "conv"
		case *nn.MaxPool2D, *nn.GlobalAvgPool:
			kinds[l.Name()] = "pool"
		case *nn.ReLU:
			kinds[l.Name()] = "relu"
		case *nn.Dense:
			kinds[l.Name()] = "dense"
		case *nn.Residual:
			kinds[l.Name()] = "other"
			inner := append([]nn.Layer(nil), t.Body...)
			if t.Proj != nil {
				inner = append(inner, t.Proj)
			}
			for _, b := range inner {
				containers[l.Name()] = append(containers[l.Name()], b.Name())
			}
			layerKinds(inner, kinds, containers)
		default:
			kinds[l.Name()] = "other"
		}
	}
}

// nnForwardProbes measures the arena inference path per model: forward time
// at batch 1, 8 and 32 (packed float) and batch 8 (int8), the share of a
// batch-8 forward spent per layer category, and allocations per forward.
func nnForwardProbes(f *fixture, p *probeSet) {
	allocs := 0.0
	for v, name := range f.names {
		net, err := f.network(v, nil)
		if !p.must("nn.forward "+name, err) {
			continue
		}
		for _, b := range []int{1, 8, 32} {
			batch, err := stackPool(f, b)
			if !p.must("stack", err) {
				continue
			}
			ar := nn.NewInferenceArena()
			preds, err := net.PredictBatchArena(batch, ar, nil) // warm the arena
			if !p.must("nn.forward "+name, err) {
				continue
			}
			iters := 160 / b
			p.set(fmt.Sprintf("nn.forward_ms.%s.b%d", name, b), 1000*perCall(iters, func() {
				preds, _ = net.PredictBatchArena(batch, ar, preds)
			}))
			if b != 8 {
				continue
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < iters; i++ {
				preds, _ = net.PredictBatchArena(batch, ar, preds)
			}
			runtime.ReadMemStats(&m1)
			allocs = math.Max(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(iters))

			// Per-layer shares through the public profiler.
			lp := &layerProfile{seconds: map[string]float64{}}
			par := nn.NewInferenceArena()
			par.Profiler = lp
			for i := 0; i <= iters; i++ {
				if i == 1 { // the first pass packs weights and grows buffers
					lp.seconds = map[string]float64{}
				}
				preds, _ = net.PredictBatchArena(batch, par, preds)
			}
			kinds, containers := map[string]string{}, map[string][]string{}
			layerKinds(net.Layers, kinds, containers)
			for box, inner := range containers {
				for _, name := range inner {
					lp.seconds[box] -= lp.seconds[name] // leave the container its own time
				}
			}
			byKind, total := map[string]float64{}, 0.0
			for layer, s := range lp.seconds {
				byKind[kinds[layer]] += s
				total += s
			}
			for _, c := range layerCategories {
				p.set("nn.layer_share."+name+"."+c, byKind[c]/total)
			}
			// int8 path, calibrated on the batch's own samples.
			calib := make([]nn.Sample, 64)
			for i := range calib {
				calib[i] = f.pool[i%len(f.pool)]
			}
			quant, err := nn.CalibrateInt8(net, calib, 8)
			if !p.must("nn.forward_int8 "+name, err) {
				continue
			}
			qar := nn.NewInferenceArena()
			qar.Quant = quant
			if preds, err = net.PredictBatchArena(batch, qar, preds); !p.must("nn.forward_int8 "+name, err) {
				continue
			}
			p.set("nn.forward_int8_ms."+name+".b8", 1000*perCall(iters, func() {
				preds, _ = net.PredictBatchArena(batch, qar, preds)
			}))
		}
	}
	p.set("nn.allocs_per_forward", allocs)
	p.note("nn.allocs_per_forward is the largest of the models' mean mallocs per warmed batch-8 forward")
}

// heaviestGemms profiles one forward of every version at the given batch
// size and returns the GEMM with the most FLOPs of each.
func heaviestGemms(f *fixture, batch int, p *probeSet) []gemmShape {
	var out []gemmShape
	x, err := stackPool(f, batch)
	if !p.must("stack", err) {
		return nil
	}
	for v, name := range f.names {
		net, err := f.network(v, nil)
		if !p.must("profile "+name, err) {
			continue
		}
		lp := &layerProfile{seconds: map[string]float64{}}
		ar := nn.NewInferenceArena()
		ar.Profiler = lp
		if _, err := net.PredictBatchArena(x, ar, nil); !p.must("profile "+name, err) || len(lp.gemms) == 0 {
			continue
		}
		top := lp.gemms[0]
		for _, g := range lp.gemms {
			if g.flops() > top.flops() {
				top = g
			}
		}
		out = append(out, top)
		p.note("heaviest batch-%d GEMM of %s: %s (%d×%d)·(%d×%d)", batch, name, top.layer, top.m, top.k, top.k, top.n)
	}
	return out
}

// randomMatrix returns an m×n tensor of seeded uniform values.
func randomMatrix(r *xrand.Rand, m, n int) *tensor.Tensor {
	t := tensor.New(m, n)
	t.RandomizeUniform(r, -1, 1)
	return t
}

// tensorProbes times the kernels on the heaviest batch-8 GEMM of each model,
// FLOP-weighted (total FLOPs over total time), beside two machine ceilings.
// Byte rates are computed from tensor sizes, not measured on the bus.
func tensorProbes(f *fixture, p *probeSet) {
	shapes := heaviestGemms(f, 8, p)
	if len(shapes) == 0 {
		return
	}
	r := xrand.New(f.seed).Split("probe", 0)
	var flops, packedS, int8S, packBytes, packS float64
	for _, g := range shapes {
		a, b := randomMatrix(r, g.m, g.k), randomMatrix(r, g.k, g.n)
		c := tensor.New(g.m, g.n)
		var pa tensor.PackedA
		var pb tensor.PackedB
		if !p.must("pack", pa.Pack(a)) || !p.must("pack", pb.Pack(b)) {
			return
		}
		flops += g.flops()
		packedS += perCall(40, func() { _ = tensor.GemmPacked(c, &pa, &pb) })
		packS += perCall(40, func() { _ = pb.Pack(b) })
		packBytes += 2 * 4 * float64(g.k*g.n) // read once, written once (padding ignored)

		var qa tensor.PackedAInt8
		var qb tensor.PackedBInt8
		sa, sb := tensor.Int8ScaleFor(tensor.MaxAbs(a.Data)), tensor.Int8ScaleFor(tensor.MaxAbs(b.Data))
		if !p.must("pack int8", qa.Pack(a, sa.Inv)) || !p.must("pack int8", qb.Pack(b, sb.Inv)) {
			return
		}
		c32 := make([]int32, g.m*g.n)
		int8S += perCall(40, func() { _ = tensor.GemmInt8Packed(c32, &qa, &qb) })
	}
	p.set("tensor.gemm_packed_gflops", flops/packedS/1e9)
	p.set("tensor.gemm_int8_gops", flops/int8S/1e9)
	p.set("tensor.pack_b_gbps", packBytes/packS/1e9)

	// Im2ColBatch on the alexnet-small conv2 input at batch 8: (8,16,12,12),
	// 3×3, stride 1, pad 1 → a (144, 1152) column matrix.
	in := tensor.New(8, 16, 12, 12)
	in.RandomizeUniform(r, 0, 1)
	cols := tensor.New(16*3*3, 8*12*12)
	im2colS := perCall(40, func() { _ = tensor.Im2ColBatch(in, 3, 3, 1, 1, cols) })
	p.set("tensor.im2col_gbps", 4*float64(in.Len()+cols.Len())/im2colS/1e9)
	p.note("tensor.*_gbps are computed bytes (operand sizes read once plus outputs written once) over time, not measured traffic")

	const peakIters = 1 << 20
	peakS := perCall(1, func() { peakMulAdd(peakIters) })
	peak := peakFlopsPerIter * peakIters / peakS / 1e9
	p.set("machine.peak_mulps_gflops", peak)
	p.set("tensor.gemm_packed_peak_share", flops/packedS/1e9/peak)

	src, dst := make([]float32, 8<<20), make([]float32, 8<<20) // 32 MiB each: past every cache level
	copyS := perCall(3, func() { copy(dst, src) })
	p.set("machine.copy_gbps", 2*4*float64(len(src))/copyS/1e9)
	sink = dst
}

// scalarMatMulProbe times the scalar reference MatMul — the kernel under the
// per-sample Forward path paper_eval runs — on each version's heaviest
// single-sample GEMM, FLOP-weighted.
func scalarMatMulProbe(f *fixture, p *probeSet) {
	shapes := heaviestGemms(f, 1, p)
	r := xrand.New(f.seed).Split("probe-scalar", 0)
	var flops, secs float64
	for _, g := range shapes {
		a, b := randomMatrix(r, g.m, g.k), randomMatrix(r, g.k, g.n)
		flops += g.flops()
		secs += perCall(20, func() { sink, _ = tensor.MatMul(a, b) })
	}
	if secs > 0 {
		p.set("tensor.matmul_scalar_gflops", flops/secs/1e9)
	}
}

// coreProbes times one three-proposal majority vote.
func coreProbes(p *probeSet) {
	voter := core.NewEqualityVoter[int]()
	props := []core.Proposal[int]{{Module: "a", Value: 3}, {Module: "b", Value: 3}, {Module: "c", Value: 7}}
	p.set("core.vote_ns", 1e9*perCall(200000, func() { sink = voter.Vote(props) }))
}

// obsProbes times recording one request-shaped trace (a root and five
// intervals, published once) on a fresh sink, per span.
func obsProbes(p *probeSet) {
	s := obs.NewSpanSink(obs.DefaultTraceCapacity)
	const perTrace = 6
	p.set("obs.span_record_ns", 1e9*perCall(20000, func() {
		sp := s.StartTrace("request")
		t := s.Now()
		for _, kind := range []string{"admission", "queue_wait", "batch", "vote", "reply"} {
			sp.Interval(kind, t, t, nil)
		}
		sp.End()
	})/perTrace)
}

// replayProbes feeds the program spans of the traced run through a fresh
// health engine and a fresh tsdb ingester and reports the cost per span.
func replayProbes(spans []span, p *probeSet) {
	var recs []obs.SpanRecord
	for _, s := range spans {
		if s.Source == "program" {
			recs = append(recs, obs.SpanRecord{Trace: s.Op, ID: s.ID, Parent: s.Parent,
				Kind: s.Name, Start: s.Start, End: s.End, Attrs: s.Attrs})
		}
	}
	if len(recs) == 0 {
		return
	}
	n := float64(len(recs))
	p.set("health.observe_ns_per_span", 1e9*perCall(1, func() {
		sink = health.Replay(recs, health.DefaultOptions())
	})/n)
	p.set("tsdb.ingest_ns_per_span", 1e9*perCall(1, func() {
		store := tsdb.New(tsdb.Config{BucketSeconds: 1, Buckets: 600})
		tsdb.Replay(recs, tsdb.NewIngester(store, nil))
		sink = store
	})/n)
	p.note("health/tsdb replay over %d program spans (health.Replay includes its sort by end time)", len(recs))
}

// httpProbes times what the HTTP boundary adds per request on the server
// side: decoding a raw-image body into a tensor, and — for comparison —
// rendering the image a "class" request would have asked for.
func httpProbes(f *fixture, p *probeSet) {
	body, err := json.Marshal(serve.ClassifyRequest{Image: f.pool[0].X.Data})
	if !p.must("marshal", err) {
		return
	}
	p.set("serve.http_decode_us", 1e6*perCall(200, func() {
		var req serve.ClassifyRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err == nil {
			sink, _ = req.Tensor()
		}
	}))
	cfg := signs.DefaultConfig()
	r := xrand.New(f.seed).Split("render", 0)
	p.set("signs.render_us", 1e6*perCall(200, func() {
		sink = signs.Render(r.Intn(signs.NumClasses), r, cfg)
	}))
}

// gatewayProbes times the two routing primitives on the live fleet.
func gatewayProbes(fl *fleetInst, p *probeSet) {
	ring := gateway.NewRing(0)
	for _, sh := range fl.shards {
		if !p.must("ring", ring.Add(sh.ID())) {
			return
		}
	}
	keys, i := fl.f.keys, 0
	p.set("gateway.ring_lookup_ns", 1e9*perCall(100000, func() { sink = ring.Lookup(keys[i%len(keys)]); i++ }))
	p.set("gateway.plan_ns", 1e9*perCall(100000, func() { sink = fl.gw.Plan(keys[i%len(keys)]); i++ }))
}

// evalProbes measures the per-sample path paper_eval runs and the offline
// layers behind the paper's tables.
func evalProbes(f *fixture, p *probeSet) {
	for v, name := range f.names {
		net, err := f.network(v, nil)
		if !p.must("nn.predict "+name, err) {
			continue
		}
		i := 0
		p.set("nn.predict_us."+name, 1e6*perCall(100, func() { sink, _ = net.Predict(f.pool[i%len(f.pool)].X); i++ }))
		opt := nn.NewSGD(0.01, 0.9)
		p.set("nn.train_batch_ms."+name, 1000*perCall(2, func() { sink, _ = net.TrainBatch(f.train[:trainBatch], opt) }))
		correct := 0
		for i, s := range f.pool {
			if f.oracle.preds[v][i] == s.Label {
				correct++
			}
		}
		p.set("nn.accuracy."+name, float64(correct)/float64(len(f.pool)))
	}
	scalarMatMulProbe(f, p)
	p.set("experiments.train_s", f.trainS)
	p.set("signs.generate_s", f.generateS)

	// One campaign trial and one calibration try are each one injection plus
	// one Accuracy pass over a 16-sample chunk, on the heaviest version.
	if net, err := f.network(1%len(f.names), nil); p.must("faultinject", err) {
		chunk := f.pool[:evalChunk]
		layer := f.injectLayer()
		const trials = 8
		cfg := faultinject.CampaignConfig{Kind: faultinject.KindWeightValue, Layers: []int{layer},
			TrialsPerLayer: trials, MinVal: -10, MaxVal: 30, Workers: 1, Seed: f.seed}
		p.set("faultinject.campaign_trial_ms", 1000*perCall(1, func() {
			sink, _ = faultinject.RunCampaign(net, chunk, cfg, xrand.New(f.seed))
		})/(trials+1)) // the campaign also evaluates its baseline once
		p.set("faultinject.calibrate_ms", 1000*perCall(4, func() {
			// The band [0, 1] accepts the first try, so this times exactly one.
			res, err := faultinject.CalibrateCompromise(net, chunk, layer, -10, 30, 0, 1, 1, xrand.New(f.seed))
			if err == nil {
				faultinject.RevertAll(res.Applied)
			}
		}))
	}

	if model, err := reliability.NewModel(3, reliability.DefaultParams(), true); p.must("petri", err) {
		times := []float64{300, 1523, 6092}
		const reps = 400
		w1 := perCall(1, func() { sink, _ = model.TransientReliability(times, reps, 1, xrand.New(f.seed)) })
		w2 := perCall(1, func() { sink, _ = model.TransientReliability(times, reps, 2, xrand.New(f.seed)) })
		p.set("petri.transient_reps_per_s", reps/w1)
		p.set("parallel.speedup_w2", w1/w2)
	}

	p.set("drivesim.episodes_per_s", 1/perCall(1, func() {
		sink, _ = drivesim.Run(drivesim.Config{RouteNumber: 1}, drivesim.PerfectPerception{}, xrand.New(f.seed))
	}))
	sc := scenario.Sample(scenario.DefaultSpace(), xrand.New(f.seed).Split("scenario", 0))
	p.set("scenario.evaluate_ms", 1000*perCall(1, func() { sink, _ = scenario.Evaluate(sc) }))
	p.note("scenario.evaluate_ms evaluates one scenario sampled from scenario.DefaultSpace with the run's seed")
}

// programSpanMetrics derives the serve.* rows from the program's own spans.
// Differences between layers are differences of medians.
func programSpanMetrics(spans []span, names []string, wall time.Duration, p *probeSet) {
	byName := map[string][]float64{}
	forward := map[string][]float64{}
	var program []span
	type batchKey struct{ start, end float64 }
	batches := map[batchKey]float64{} // distinct batches → size
	slowest := map[uint64]float64{}   // batch span id → slowest forward under it
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.dur())
		if s.Source != "program" {
			continue
		}
		program = append(program, s)
		switch s.Name {
		case "forward":
			v, _ := s.Attrs["version"].(string)
			forward[v] = append(forward[v], s.dur())
			if s.dur() > slowest[s.Parent] {
				slowest[s.Parent] = s.dur()
			}
		case "batch":
			if size, ok := s.Attrs["batch_size"].(int); ok {
				batches[batchKey{s.Start, s.End}] = float64(size)
			}
		}
	}
	if len(byName["request"]) == 0 {
		return
	}
	p.set("obs.spans_per_op", float64(len(program))/float64(len(byName["request"])))
	q := func(name string, quant float64) float64 {
		xs := append([]float64(nil), byName[name]...)
		sort.Float64s(xs)
		return nearestRank(xs, quant)
	}
	p.set("serve.admission_us_p50", 1e6*q("admission", 0.5))
	p.set("serve.queue_wait_ms_p50", 1e3*q("queue_wait", 0.5))
	p.set("serve.queue_wait_ms_p95", 1e3*q("queue_wait", 0.95))
	p.set("serve.batch_ms_p50", 1e3*q("batch", 0.5))
	p.set("serve.vote_us_p50", 1e6*q("vote", 0.5))
	for _, name := range names {
		xs := forward[name]
		sort.Float64s(xs)
		p.set("serve.forward_ms_p50."+name, 1e3*nearestRank(xs, 0.5))
	}
	var sizes, idle []float64
	for _, size := range batches {
		sizes = append(sizes, size)
	}
	for _, s := range program {
		if s.Name == "batch" {
			if f, ok := slowest[s.ID]; ok {
				idle = append(idle, s.dur()-f)
			}
		}
	}
	sort.Float64s(idle)
	mean := 0.0
	for _, s := range sizes {
		mean += s / float64(len(sizes))
	}
	p.set("serve.batch_size_mean", mean)
	p.set("serve.batches_per_s", float64(len(sizes))/wall.Seconds())
	p.set("serve.gather_idle_ms_p50", 1e3*nearestRank(idle, 0.5))

	// The unattributed remainder: request wall time no named stage covers.
	self := selfTimes(program)
	var total, unattributed float64
	for _, s := range program {
		if s.Name == "request" {
			total += s.dur()
			unattributed += self[s.ID]
		}
	}
	p.set("serve.unattributed_share", unattributed/total)

	// What the gateway adds around its shard attempts: the self time of its
	// "route" spans. Plan runs before the span opens; see gateway.plan_ns.
	var route []float64
	for _, s := range program {
		if s.Name == "route" {
			route = append(route, self[s.ID])
		}
	}
	if len(route) > 0 {
		sort.Float64s(route)
		p.set("gateway.route_us_p50", 1e6*nearestRank(route, 0.5))
	}

	if rt, h := byName["http.roundtrip"], byName["http.handler"]; len(rt) > 0 && len(h) > 0 {
		p.set("http.transport_us_p50", 1e6*(q("http.roundtrip", 0.5)-q("http.handler", 0.5)))
		p.set("serve.http_codec_us_p50", 1e6*(q("http.handler", 0.5)-q("request", 0.5)))
	}
}
