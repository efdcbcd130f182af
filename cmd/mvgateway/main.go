// Command mvgateway runs the multi-shard serving gateway: N independent
// multi-version inference shards behind a consistent-hash router with
// health-aware failover, per-client retry budgets, front-door load shedding
// and a queue/latency-driven autoscaler.
//
// Usage:
//
//	mvgateway serve -shards 4 -addr :8090    # gateway + in-process shards
//	mvgateway loadgen -target http://host:8090 -rate 1000 -duration 10s
//	mvgateway demo                           # self-contained 10x resilience demo:
//	                                         # shard compromise + whole-shard
//	                                         # drain/rejuvenate under load
//
// Telemetry flags are shared with the other binaries; the demo always builds
// an in-process telemetry runtime because per-shard health engines (the
// failover signal) ride the span stream.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mvml/internal/gateway"
	"mvml/internal/health"
	"mvml/internal/nn"
	"mvml/internal/obs"
	"mvml/internal/serve"
	"mvml/internal/signs"
	"mvml/internal/telemetry"
	"mvml/internal/xrand"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = cmdServe(os.Args[2:])
	case "loadgen":
		err = cmdLoadgen(os.Args[2:])
	case "demo":
		err = cmdDemo(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		usage()
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvgateway:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  mvgateway serve   [flags]   run the gateway over in-process shards
  mvgateway loadgen [flags]   open-loop load against a running gateway
  mvgateway demo    [flags]   self-contained multi-shard resilience demo
run "mvgateway <subcommand> -h" for flags`)
}

// gwFlags bundles the shard-fleet and gateway knobs shared by serve and demo.
type gwFlags struct {
	shards      *int
	versions    *int
	workers     *int
	queue       *int
	batch       *int
	timeout     *time.Duration
	seed        *uint64
	fullModels  *bool
	maxInflight *int
	retryBurst  *float64
	autoscale   *bool
	maxWorkers  *int
}

func registerGwFlags(fs *flag.FlagSet) *gwFlags {
	def := serve.DefaultConfig()
	return &gwFlags{
		shards:      fs.Int("shards", 4, "number of serving shards"),
		versions:    fs.Int("versions", def.Versions, "ensemble size per shard"),
		workers:     fs.Int("workers", def.WorkersPerVersion, "initial workers per version per shard"),
		queue:       fs.Int("queue", def.QueueDepth, "per-shard admission queue depth"),
		batch:       fs.Int("batch", def.MaxBatch, "per-shard micro-batch flush size"),
		timeout:     fs.Duration("timeout", def.RequestTimeout, "per-request deadline"),
		seed:        fs.Uint64("seed", def.Seed, "root random seed (all shards share it: identical ensembles)"),
		fullModels:  fs.Bool("full-models", false, "serve the full three-architecture ensemble instead of the fast profile"),
		maxInflight: fs.Int("max-inflight", 512, "gateway load-shedding bound on concurrently routed requests"),
		retryBurst:  fs.Float64("retry-burst", 10, "per-client retry budget cap"),
		autoscale:   fs.Bool("autoscale", true, "run the queue/latency-driven autoscaler"),
		maxWorkers:  fs.Int("max-workers", 4, "autoscaler ceiling on per-version workers per shard"),
	}
}

// fastNet is the demo model profile: a minimal flatten+dense classifier with
// identical weights across versions (fixed internal seed). It preserves every
// ensemble property the gateway exercises — agreement, divergence under
// compromise, rejuvenation — while being fast enough that a single CPU can
// drive a 4-shard fleet at 4-figure request rates. -full-models restores the
// real three-architecture ensemble.
func fastNet(version int, _ *xrand.Rand) (*nn.Network, error) {
	r := xrand.New(1234)
	return &nn.Network{
		Name: fmt.Sprintf("fast-%d", version),
		Layers: []nn.Layer{
			nn.NewFlatten("flat"),
			nn.NewDense("fc", nn.InputChannels*nn.InputSize*nn.InputSize, signs.NumClasses, r),
		},
	}, nil
}

// shardConfig builds the serve.Config for one shard of the fleet.
func (gf *gwFlags) shardConfig(label string, healthOpts *health.Options) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Versions = *gf.versions
	cfg.WorkersPerVersion = *gf.workers
	cfg.QueueDepth = *gf.queue
	cfg.MaxBatch = *gf.batch
	cfg.RequestTimeout = *gf.timeout
	cfg.Seed = *gf.seed
	cfg.ShardLabel = label
	cfg.Health = healthOpts
	if !*gf.fullModels {
		cfg.NewNetwork = fastNet
		cfg.InjectLayer = 0  // the fast net's only parameterised layer
		cfg.InjectCount = 64 // enough perturbed weights to reliably flip argmax
	}
	return cfg
}

// buildFleet constructs the gateway and its initial shards. The returned
// spawn function builds autoscaler shards with the same configuration. p99,
// when non-nil, feeds the autoscaler's latency signal from the tsdb
// recording rule instead of the gateway's own window.
func (gf *gwFlags) buildFleet(rt *obs.Runtime, healthOpts *health.Options, p99 func() time.Duration) (*gateway.Gateway, []*gateway.LocalShard, func(id string) (gateway.ShardControl, error), error) {
	gw := gateway.New(gateway.Config{
		MaxInflight: *gf.maxInflight,
		RetryBurst:  *gf.retryBurst,
	}, rt)
	spawn := func(id string) (gateway.ShardControl, error) {
		srv, err := serve.New(gf.shardConfig(id, healthOpts), rt)
		if err != nil {
			return nil, err
		}
		return gateway.NewLocalShard(srv)
	}
	var shards []*gateway.LocalShard
	for i := 0; i < *gf.shards; i++ {
		sc, err := spawn(fmt.Sprintf("shard-%d", i))
		if err != nil {
			for _, sh := range shards {
				sh.Close()
			}
			return nil, nil, nil, err
		}
		sh := sc.(*gateway.LocalShard)
		shards = append(shards, sh)
		if err := gw.AddShard(sh); err != nil {
			for _, s := range shards {
				s.Close()
			}
			return nil, nil, nil, err
		}
	}
	if *gf.autoscale {
		gw.StartAutoscaler(gateway.AutoscalerConfig{
			MaxWorkers: *gf.maxWorkers,
			P99Source:  p99,
			SpawnShard: spawn,
			OnEvent: func(ev gateway.ScaleEvent) {
				fmt.Fprintf(os.Stderr, "mvgateway: autoscale %s shard=%s workers=%d (%s)\n",
					ev.Kind, ev.Shard, ev.Workers, ev.Reason)
			},
		})
	}
	return gw, shards, spawn, nil
}

// demoHealthOptions force-enables per-shard health engines: health-aware
// failover is the point of the gateway, so the demo does not make it opt-in.
func demoHealthOptions(tele *telemetry.Flags) *health.Options {
	if opts := tele.Options(); opts != nil {
		return opts
	}
	d := health.DefaultOptions()
	return &d
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("mvgateway serve", flag.ExitOnError)
	addr := fs.String("addr", ":8090", "HTTP listen address")
	gf := registerGwFlags(fs)
	var tele telemetry.Flags
	tele.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tele.InfoLabel("shards", fmt.Sprintf("%d", *gf.shards))
	rt, err := tele.Start()
	if err != nil {
		return err
	}
	if rt == nil {
		// Health engines (the failover signal) ride the span stream, so the
		// gateway always runs a local runtime even with telemetry flags off.
		rt = obs.NewRuntime(0)
	}
	defer func() {
		if err := tele.Finish(map[string]any{"command": "gateway-serve"}); err != nil {
			fmt.Fprintln(os.Stderr, "mvgateway:", err)
		}
	}()

	gw, shards, _, err := gf.buildFleet(rt, demoHealthOptions(&tele), tele.P99Source())
	if err != nil {
		return err
	}
	defer func() {
		gw.Close()
		for _, sh := range shards {
			sh.Close()
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := serve.NewHTTPServer(gw.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "mvgateway: routing %d shards on http://%s\n", *gf.shards, ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case <-sig:
		fmt.Fprintln(os.Stderr, "mvgateway: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}

func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("mvgateway loadgen", flag.ExitOnError)
	target := fs.String("target", "http://127.0.0.1:8090", "base URL of the gateway")
	def := serve.DefaultLoadConfig()
	rate := fs.Float64("rate", 1000, "open-loop request rate (req/s)")
	duration := fs.Duration("duration", def.Duration, "load duration")
	timeout := fs.Duration("request-timeout", def.Timeout, "per-request HTTP timeout")
	seed := fs.Uint64("seed", def.Seed, "request-stream seed")
	client := fs.String("client", "loadgen", "X-Client-ID for retry budgeting")
	jsonOut := fs.Bool("json", false, "print the report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := serve.RunLoad(*target, serve.LoadConfig{
		Rate: *rate, Duration: *duration, Timeout: *timeout, Seed: *seed, ClientID: *client,
	})
	if err != nil {
		return err
	}
	return printReport(rep, *jsonOut)
}

func printReport(rep *serve.LoadReport, asJSON bool) error {
	if asJSON {
		return json.NewEncoder(os.Stdout).Encode(rep)
	}
	fmt.Println(rep)
	return nil
}

// cmdDemo is the multi-shard resilience demonstration: a gateway over N
// in-process shards under open-loop load an order of magnitude beyond the
// single-shard demo workload, with two mid-run faults — one version of one
// shard compromised (the shard's health engine degrades it, routing fails
// over, reactive rejuvenation heals it) and one whole shard drained,
// rejuvenated and reinstated (ring failover end to end). It exits non-zero
// if any request failed; degraded answers and 429 shedding are designed
// behaviours, failures are not.
func cmdDemo(args []string) error {
	fs := flag.NewFlagSet("mvgateway demo", flag.ExitOnError)
	gf := registerGwFlags(fs)
	rate := fs.Float64("rate", 1000, "open-loop request rate (req/s)")
	duration := fs.Duration("duration", 10*time.Second, "load duration")
	baseline := fs.Float64("baseline-rps", 100,
		"single-shard reference throughput for the scale ratio (the mvserve demo's default workload)")
	jsonOut := fs.Bool("json", false, "print the report as JSON")
	var tele telemetry.Flags
	tele.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tele.InfoLabel("shards", fmt.Sprintf("%d", *gf.shards))
	rt, err := tele.Start()
	if err != nil {
		return err
	}
	if rt == nil {
		rt = obs.NewRuntime(0)
	}
	gw, shards, _, err := gf.buildFleet(rt, demoHealthOptions(&tele), tele.P99Source())
	if err != nil {
		return err
	}
	defer func() {
		gw.Close()
		for _, sh := range shards {
			sh.Close()
		}
	}()
	if len(shards) > 0 {
		tele.Observe(shards[0].Server().Health())
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := serve.NewHTTPServer(gw.Handler())
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "mvgateway demo: %d shards on %s, load %.0f req/s for %v\n",
		len(shards), base, *rate, *duration)

	// Fault 1 (t/3): compromise one version of shard-0. Its health engine
	// sees the divergence, the shard drops to degraded (deprioritised in
	// routing), and the reactive trigger rejuvenates the version.
	go func() {
		time.Sleep(*duration / 3)
		fmt.Fprintln(os.Stderr, "mvgateway demo: compromising shard-0 version 0")
		if len(shards) > 0 {
			if err := shards[0].Compromise(0); err != nil {
				fmt.Fprintln(os.Stderr, "mvgateway demo:", err)
			}
		}
	}()
	// Fault 2 (2t/3): take a whole shard through zero-downtime maintenance —
	// drain (ring successors absorb its keyspace), rejuvenate every version,
	// reinstate. No request should fail across the transition.
	go func() {
		time.Sleep(2 * *duration / 3)
		if len(shards) < 2 {
			return
		}
		sh := shards[1]
		fmt.Fprintf(os.Stderr, "mvgateway demo: draining %s for full rejuvenation\n", sh.ID())
		sh.SetDraining(true)
		if err := sh.Rejuvenate(serve.RejuvManual); err != nil {
			fmt.Fprintln(os.Stderr, "mvgateway demo:", err)
		}
		sh.SetDraining(false)
		fmt.Fprintf(os.Stderr, "mvgateway demo: %s rejuvenated and reinstated\n", sh.ID())
	}()

	rep, err := serve.RunLoad(base, serve.LoadConfig{
		Rate: *rate, Duration: *duration, Timeout: 5 * time.Second,
		Seed: *gf.seed, ClientID: "demo",
	})
	if err != nil {
		return err
	}
	if err := printReport(rep, *jsonOut); err != nil {
		return err
	}

	reg := rt.Metrics()
	fmt.Printf("gateway: %d answered by owner, %d rerouted (health/drain), %d failovers, %d budget retries, %d shed (429), %d exhausted\n",
		reg.Counter("mv_gateway_routed_total").Value(),
		reg.Counter("mv_gateway_rerouted_total").Value(),
		reg.Counter("mv_gateway_failovers_total").Value(),
		reg.Counter("mv_gateway_retries_total").Value(),
		reg.Counter("mv_gateway_shed_total").Value(),
		reg.Counter("mv_gateway_failed_total").Value())
	rejuv := uint64(0)
	for _, kind := range []string{serve.RejuvReactive, serve.RejuvProactive, serve.RejuvManual} {
		rejuv += reg.Counter("mvserve_rejuvenations_total", "kind", kind).Value()
	}
	fmt.Printf("fleet: %d shards live, %d rejuvenations (all kinds)\n", len(gw.Shards()), rejuv)
	if *baseline > 0 {
		fmt.Printf("scale: %.1f req/s answered = %.1fx the single-shard reference (%.0f req/s)\n",
			rep.Throughput, rep.Throughput / *baseline, *baseline)
	}

	if err := tele.Finish(map[string]any{"command": "gateway-demo", "report": rep}); err != nil {
		fmt.Fprintln(os.Stderr, "mvgateway:", err)
	}
	if rep.Failed > 0 || rep.Errors > 0 {
		return fmt.Errorf("demo saw %d failed and %d transport-error requests", rep.Failed, rep.Errors)
	}
	fmt.Println("demo passed: zero failed requests across shard compromise, drain and rejuvenation")
	return nil
}
