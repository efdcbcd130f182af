// Command mvbench is the repository's one benchmark. It drives the public
// APIs of serve, gateway, nn, tensor, core, obs, health, faultinject and
// experiments from outside, on four named workloads, checks every answer
// against an oracle, and prints every end-to-end and per-layer metric by name
// with its unit. README.md in this directory defines each name.
//
// Usage:
//
//	go run ./cmd/mvbench                         # all workloads: measured + traced run + probes
//	go run ./cmd/mvbench -repeat 3 -out a.json   # measured phase three times, quartiles per metric
//	go run ./cmd/mvbench compare a.json b.json   # apply BENCHMARK.json's bounds
//	go run ./cmd/mvbench --workload shard_http --seed 7 --seconds 15 --trace 0
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"mvml/internal/xrand"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(cmdCompare(os.Args[2:]))
	}
	os.Exit(cmdRun(os.Args[1:]))
}

// Trace modes of one invocation.
const (
	traceBoth = -1 // measured phase(s), then a traced run and probes
	traceOff  = 0  // measured phase(s) only: the end-to-end metrics
	traceOnly = 1  // a short untraced reference, then the traced run and probes
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	repeat   int
	out      string
	traceOut string
}

// Lengths of the runs around the measured phase, as shares of -seconds: the
// traced run that follows the measured phase(s), and how a -trace 1
// invocation, which has no measured phase, splits -seconds between its
// untraced reference and its traced run.
const (
	tracedShare    = 1.0 / 3
	referenceShare = 0.4
)

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("mvbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(workloadNames(), ", ")+") and end with the one-line JSON result; empty runs all four")
	fs.Uint64Var(&o.seed, "seed", 38, "seed of dataset, request order, route keys and op schedules")
	fs.Float64Var(&o.seconds, "seconds", 30, "length of one measured phase; the traced run lasts a third of it")
	fs.IntVar(&o.trace, "trace", traceBoth, "0: measured phase only; 1: untraced reference, traced run and probes only; -1: both")
	fs.IntVar(&o.repeat, "repeat", 1, "run the measured phase this many times (set-up once) and record quartiles")
	fs.StringVar(&o.out, "out", "", "write the full result to this JSON file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced runs' spans to this JSON Lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if o.workload == "" || o.workload == w.name {
			selected = append(selected, w)
		}
	}
	switch {
	case len(selected) == 0:
		fmt.Fprintf(os.Stderr, "mvbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	case o.seconds <= 0 || o.repeat < 1 || o.trace < traceBoth || o.trace > traceOnly || fs.NArg() > 0:
		fmt.Fprintln(os.Stderr, "mvbench: need -seconds > 0, -repeat >= 1, -trace in {-1,0,1} and no positional arguments")
		return 2
	}

	start := time.Now()
	res := &result{Schema: schemaVersion, Machine: readMachine(), Seed: o.seed,
		Seconds: o.seconds, Repeat: o.repeat, Valid: true}
	fmt.Printf("mvbench: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d\n",
		res.Machine.CPUModel, res.Machine.NProc, res.Machine.GOMAXPROCS, res.Machine.GoVersion, res.Machine.GitCommit, o.seed)
	f, err := newFixture(o.seed, fullProfile(o.seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvbench: set-up:", err)
		return 1
	}
	runtime.GOMAXPROCS(measuredProcs)
	res.Setup = sharedSetup{GenerateS: num(f.generateS), TrainS: num(f.trainS), OracleS: num(f.oracleS)}
	fmt.Printf("shared set-up: generate %.2fs, train %.2fs, oracle %.2fs\n", f.generateS, f.trainS, f.oracleS)

	var spans []span
	for _, w := range selected {
		wr, wspans, err := runWorkload(w, f, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mvbench: %s: %v\n", w.name, err)
			return 1
		}
		wr.print()
		res.Workloads = append(res.Workloads, wr)
		if !wr.Valid {
			res.Valid = false
			for _, r := range wr.Reasons {
				res.Reasons = append(res.Reasons, w.name+": "+r)
			}
		}
		spans = append(spans, wspans...)
	}
	res.TotalWallS = num(time.Since(start).Seconds())
	fmt.Printf("total wall %.1fs, valid %v %s\n", float64(res.TotalWallS), res.Valid, strings.Join(res.Reasons, "; "))

	if o.out != "" {
		if err := res.write(o.out); err != nil {
			fmt.Fprintln(os.Stderr, "mvbench:", err)
			return 1
		}
	}
	if o.traceOut != "" {
		if err := writeSpans(o.traceOut, spans); err != nil {
			fmt.Fprintln(os.Stderr, "mvbench:", err)
			return 1
		}
	}
	correct := true
	for _, wr := range res.Workloads {
		correct = correct && wr.Correct
	}
	if o.workload != "" {
		line, err := driverLine(res.Workloads[0], o.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mvbench:", err)
			return 1
		}
		fmt.Println(line)
	}
	if !correct {
		return 1
	}
	return 0
}

// measuredProcs is GOMAXPROCS for everything after the shared set-up, which
// trains on every core. On the shared host this benchmark runs on, one busy
// vCPU reads the same whichever physical core the host gives it; two read 1.7
// times one core or barely more than one, depending on where the host puts
// them, for minutes at a time (README, "What the machine does to the
// numbers"). So the gated numbers are per core, and the loads are sized for
// one.
const measuredProcs = 1

// phase is one measured, reference or traced run of a workload.
type phase struct {
	d       time.Duration
	wall    time.Duration
	setupS  float64       // build + warm-up
	stall   time.Duration // longest the whole process was held up
	recs    []opRecord
	counts  counts
	cpuS    [numWindows]float64 // process CPU seconds spent in each window
	mallocs uint64
	liveMB  float64
	extra   map[string]float64
	spans   []span
	// problems invalidate the run (an oracle or end-state check failed).
	problems []string
}

// runPhase builds the workload, drives it for d with the process's CPU and
// allocation counters read on either side of the load and nothing else, then
// settles the records against the oracle off the clock.
func runPhase(w workload, f *fixture, d time.Duration, traced bool, rng *xrand.Rand) (*phase, error) {
	var rec *recorder
	if traced {
		rec = &recorder{}
	}
	t0 := time.Now()
	inst, err := w.build(f, rec)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	defer inst.close()

	ph := &phase{d: d, setupS: time.Since(t0).Seconds()}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu, stalls := sampleCPU(d), watchStalls()
	ph.recs, ph.wall = inst.load(d, rng)
	ph.stall = stalls()
	ph.cpuS = <-cpu
	runtime.ReadMemStats(&m1)
	ph.mallocs = m1.Mallocs - m0.Mallocs
	runtime.GC()
	runtime.ReadMemStats(&m1)
	ph.liveMB = float64(m1.HeapInuse) / (1 << 20)

	ph.extra, ph.problems = inst.settle(ph.recs, ph.wall)
	ph.counts = tally(ph.recs, len(f.names))
	ph.spans = rec.take()
	if c := ph.counts; c.bad() > 0 {
		ph.problems = append(ph.problems, fmt.Sprintf("%d of %d ops failed the oracle (%d rejected, %d failed, %d wrong)",
			c.bad(), c.Attempted, c.Rejected, c.Failed, c.Wrong))
	}
	return ph, nil
}

// endToEnd computes the seven end-to-end metrics of one phase. The
// percentiles and the CPU cost are medians over the phase's five windows, so
// that a burst of interference shorter than two windows does not move them.
func (ph *phase) endToEnd(sharedS float64) map[string]float64 {
	c := ph.counts
	cpu := make([]float64, numWindows)
	for w, n := range windowAnswered(ph.recs, ph.d) {
		if n == 0 {
			cpu = nil // a window that answered nothing has no cost per op: unmeasurable
			break
		}
		cpu[w] = ph.cpuS[w] / float64(n) * 1000
	}
	// Only answers of the whole healthy ensemble are fixed by the weights; a
	// partial ensemble's are degraded by rule and the compromised shard's by
	// the fault, and how many of those a run sees is timing. paper_eval has no
	// voted answers: 0 by definition.
	degraded := 0.0
	if c.Full > 0 {
		degraded = float64(c.FullDegraded) / float64(c.Full)
	}
	return map[string]float64{
		mSetup:         sharedS + ph.setupS,
		mGoodput:       float64(c.answered()) / ph.wall.Seconds(),
		mP50:           windowQuantile(ph.recs, ph.d, 0.50),
		mP95:           windowQuantile(ph.recs, ph.d, 0.95),
		mCPU:           median(cpu),
		mFailedShare:   float64(c.bad()) / float64(c.Attempted),
		mDegradedShare: degraded,
	}
}

// maxSchedLagMS is the open-loop validity limit: a generator that fired its
// p99 request later than this was not offering the schedule it claims. The
// generator shares its core with the fleet (a forward pass runs to its end
// before the timer goroutine gets the core back) and its p99 lag sits at
// 3–6 ms when nothing else is wrong, so the limit is twice that; latency
// counts from the due time, so lag is charged to the system anyway.
const maxSchedLagMS = 10

// maxStall is how long the host may hold the whole process up (see
// watchStalls) before the phase no longer measures the program: half the
// servers' 500 ms request deadline, because a freeze that long plus an
// ordinary queue wait is about when queued requests start to expire. (A
// freeze too short for that but long enough to overflow a fleet queue makes
// the open loop fire late, which disturbed() catches as generator lag.) The
// watch oversleeps by 7-50 ms on two busy cores anyway, and this shared VM
// holds the process up for 100-200 ms several times a minute.
const maxStall = 250 * time.Millisecond

// maxReruns is how often runSteady discards a disturbed phase and runs it
// again before giving up and reporting the last one, flagged invalid.
const maxReruns = 2

// disturbed says why the phase did not measure the program alone, from the
// harness's own evidence only — never from how the program answered: the
// host held the process up, or the open loop fired its requests late. Empty
// when nothing did.
func (ph *phase) disturbed() string {
	if ph.stall > maxStall {
		return fmt.Sprintf("the host held the process up for %.0f ms (limit %d ms)", ph.stall.Seconds()*1000, maxStall.Milliseconds())
	}
	if lag := schedLagP99MS(ph.recs); lag > maxSchedLagMS {
		return fmt.Sprintf("generator lag p99 %.2f ms exceeds %d ms", lag, maxSchedLagMS)
	}
	return ""
}

// runSteady is runPhase, repeated while the phase was disturbed: the servers
// keep DefaultConfig's 500 ms deadline and 64-deep queues, so a frozen VM
// fails requests the program never saw, and such a phase is discarded rather
// than reported. Every discarded phase is noted in the workload's result.
func (wr *workloadResult) runSteady(w workload, f *fixture, d time.Duration, traced bool, rng *xrand.Rand, label string) (*phase, error) {
	for try := 0; ; try++ {
		ph, err := runPhase(w, f, d, traced, rng)
		if err != nil {
			return nil, err
		}
		why := ph.disturbed()
		if why == "" || try == maxReruns {
			wr.fold(ph, label)
			return ph, nil
		}
		wr.Discarded++
		wr.Notes = append(wr.Notes, fmt.Sprintf("%s run discarded and run again: %s (%d of %d ops had failed)", label, why, ph.counts.bad(), ph.counts.Attempted))
	}
}

// runWorkload runs one workload's phases as the trace mode asks and folds
// them into its result.
func runWorkload(w workload, f *fixture, o options) (*workloadResult, []span, error) {
	start := time.Now()
	rng := xrand.New(o.seed).Split(w.name, 0)
	wr := &workloadResult{Name: w.name, Why: w.why, Valid: true, Correct: true,
		EndToEnd: map[string]*summary{}, PerLayer: map[string]perLayerValue{}}
	secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

	measuredD, tracedD, referenceD := secs(o.seconds), secs(o.seconds*tracedShare), time.Duration(0)
	if o.trace == traceOnly {
		referenceD, tracedD = secs(o.seconds*referenceShare), secs(o.seconds*(1-referenceShare))
	}

	var reference *phase // the untraced run the traced one is compared with
	if o.trace != traceOnly {
		runs := map[string][]float64{}
		for rep := 0; rep < o.repeat; rep++ {
			ph, err := wr.runSteady(w, f, measuredD, false, rng.Split("measured", uint64(rep)), "measured")
			if err != nil {
				return nil, nil, err
			}
			for name, v := range ph.endToEnd(f.sharedS()) {
				runs[name] = append(runs[name], v)
			}
			wr.Counts.Measured = append(wr.Counts.Measured, ph.counts)
			reference = ph
		}
		for _, def := range endToEndDefs {
			wr.EndToEnd[def.Name] = summarise(def.Unit, runs[def.Name])
			if math.IsNaN(float64(wr.EndToEnd[def.Name].Median)) {
				wr.invalid(def.Name + " has too few samples to report")
			}
		}
	}
	var spans []span
	if o.trace != traceOff {
		if reference == nil {
			ph, err := wr.runSteady(w, f, referenceD, false, rng.Split("reference", 0), "reference")
			if err != nil {
				return nil, nil, err
			}
			c := ph.counts
			wr.Counts.Reference = &c
			reference = ph
		}
		ph, err := wr.runSteady(w, f, tracedD, true, rng.Split("traced", 0), "traced")
		if err != nil {
			return nil, nil, err
		}
		c := ph.counts
		wr.Counts.Traced = &c
		spans = ph.spans
		for i := range spans {
			spans[i].Workload = w.name
		}
		wr.perLayer(w, f, reference, ph)
	}
	wr.WallS = num(time.Since(start).Seconds())
	return wr, spans, nil
}

// fold merges one phase's validity into the workload's.
func (wr *workloadResult) fold(ph *phase, label string) {
	for _, p := range ph.problems {
		wr.invalid(label + " run: " + p)
		wr.Correct = false
	}
	if why := ph.disturbed(); why != "" {
		wr.invalid(label + " run: " + why)
	}
}

func (wr *workloadResult) invalid(reason string) {
	wr.Valid = false
	wr.Reasons = append(wr.Reasons, reason)
}

// perLayer fills the per-layer rows from the traced run, its untraced
// reference and the workload's probes.
func (wr *workloadResult) perLayer(w workload, f *fixture, ref, tr *phase) {
	p := newProbeSet()
	c := tr.counts
	lat := answeredLatenciesMS(tr.recs)
	p.set("client.ops_attempted", float64(c.Attempted))
	p.set("client.ops_ok", float64(c.OK+c.Exempt))
	p.set("client.ops_degraded", float64(c.Degraded))
	p.set("client.ops_rejected", float64(c.Rejected))
	p.set("client.ops_failed", float64(c.Failed))
	p.set("client.ops_wrong", float64(c.Wrong))
	p.set("client.latency_p95_ms", nearestRank(lat, 0.95))
	p.set("client.latency_p99_ms", nearestRank(lat, 0.99))
	if len(lat) > 0 {
		p.set("client.latency_max_ms", lat[len(lat)-1])
	}
	p.set("client.sched_lag_p99_ms", schedLagP99MS(tr.recs))
	p.set("client.stall_max_ms", tr.stall.Seconds()*1000)
	for name, v := range tr.extra {
		p.set(name, v)
	}

	refE, trE := ref.endToEnd(0), tr.endToEnd(0)
	p.set("obs.traced_cpu_overhead_pct", 100*(trE[mCPU]-refE[mCPU])/refE[mCPU])
	p.set("obs.traced_goodput_delta_pct", 100*(trE[mGoodput]-refE[mGoodput])/refE[mGoodput])
	p.note("traced run %.1fs against an untraced reference of %.1fs", tr.d.Seconds(), ref.d.Seconds())

	if w.serving {
		// Memory and allocation rows come from the untraced reference, so the
		// recorder's own buffers are not charged to serve.
		p.set("serve.allocs_per_op", float64(ref.mallocs)/float64(ref.counts.answered()))
		p.set("serve.live_heap_mb", ref.liveMB)
		_, rss := rusage()
		p.set("serve.peak_rss_mb", rss)
		correct := 0
		for _, r := range tr.recs {
			if r.answered() && r.ans.class == f.pool[r.img].Label {
				correct++
			}
		}
		p.set("core.voted_accuracy", float64(correct)/float64(c.answered()))
		programSpanMetrics(tr.spans, f.names, tr.wall, p)
	}
	w.probes(f, tr.spans, p)
	for _, def := range perLayerDefs() {
		if v, ok := p.values[def.Name]; ok {
			wr.PerLayer[def.Name] = perLayerValue{Value: num(v), Unit: def.Unit}
		}
	}
	wr.Notes = append(wr.Notes, p.notes...)
}

// machine is the result header's machine block.
type machine struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GitCommit  string `json:"git_commit"`
}

// readMachine fills the machine block; its GOMAXPROCS is what every phase
// after the shared set-up runs with.
func readMachine() machine {
	m := machine{CPUModel: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: measuredProcs,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GitCommit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout (the benchmark driver's copy) this fails and the
	// commit stays "unknown".
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.GitCommit = strings.TrimSpace(string(out))
	}
	return m
}

// driverLine renders the one-line result the benchmark driver reads: every
// end-to-end metric BENCHMARK.json gates with -trace 0, every per-layer
// metric with -trace 1. The driver wants a number for each name on every
// workload, so a per-layer row this workload does not exercise reads 0.
func driverLine(wr *workloadResult, trace int) (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: wr.Correct, Metrics: map[string]metric{}}
	add := func(c counts) {
		line.Attempted += c.Attempted
		line.Failed += c.bad()
	}
	if trace == traceOnly {
		add(*wr.Counts.Traced)
		for _, def := range perLayerDefs() {
			v := float64(wr.PerLayer[def.Name].Value)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			line.Metrics[def.Name] = metric{v, def.Unit}
		}
	} else {
		for _, c := range wr.Counts.Measured {
			add(c)
		}
		for _, def := range endToEndDefs {
			if !inBenchmarkFile(def.Name) {
				continue // the shares are carried by "failed" and the per-layer rows, the p95 by client.latency_p95_ms
			}
			v := float64(wr.EndToEnd[def.Name].Median)
			if math.IsNaN(v) {
				return "", fmt.Errorf("%s: %s could not be measured", wr.Name, def.Name)
			}
			line.Metrics[def.Name] = metric{v, def.Unit}
		}
	}
	b, err := json.Marshal(line)
	return string(b), err
}
