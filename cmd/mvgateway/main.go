// Command mvgateway runs the multi-shard serving gateway: N independent
// multi-version inference shards behind a consistent-hash router with
// health-aware failover, per-client retry budgets, front-door load shedding
// and a queue/latency-driven autoscaler. `mvgateway serve` runs the gateway
// over in-process shards, `mvgateway loadgen` drives open-loop load at one,
// and `mvgateway demo` is the self-contained 10x resilience demo (shard
// compromise plus whole-shard drain/rejuvenate under load). Telemetry flags
// are shared with the other binaries.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mvml/internal/cli"
	"mvml/internal/gateway"
	"mvml/internal/health"
	"mvml/internal/nn"
	"mvml/internal/obs"
	"mvml/internal/serve"
	"mvml/internal/signs"
	"mvml/internal/telemetry"
	"mvml/internal/xrand"
)

const usageText = `usage:
  mvgateway serve   [flags]   run the gateway over in-process shards
  mvgateway loadgen [flags]   open-loop load against a running gateway
  mvgateway demo    [flags]   self-contained multi-shard resilience demo
run "mvgateway <subcommand> -h" for flags
`

var commands = map[string]cli.Command{
	"serve":   cmdServe,
	"loadgen": cmdLoadgen,
	"demo":    cmdDemo,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches one invocation and returns its exit code: 0 ok (and -h), 1 a
// failed run, 2 a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	return cli.Run("mvgateway", usageText, commands, args, stdout, stderr)
}

// fleetFlags is the shard-fleet, gateway and telemetry command line shared by
// serve and demo.
type fleetFlags struct {
	shard                           serve.Config // every shard's serving configuration
	shards, maxInflight, maxWorkers int
	retryBurst                      float64
	fullModels, autoscale           bool
	tele                            telemetry.Flags
}

func registerFleetFlags(fs *flag.FlagSet) *fleetFlags {
	f := &fleetFlags{shard: serve.DefaultConfig()}
	fs.IntVar(&f.shards, "shards", 4, "number of serving shards")
	fs.IntVar(&f.shard.Versions, "versions", f.shard.Versions, "ensemble size per shard")
	fs.IntVar(&f.shard.WorkersPerVersion, "workers", f.shard.WorkersPerVersion, "initial workers per version per shard")
	fs.IntVar(&f.shard.QueueDepth, "queue", f.shard.QueueDepth, "per-shard admission queue depth")
	fs.IntVar(&f.shard.MaxBatch, "batch", f.shard.MaxBatch, "per-shard micro-batch flush size")
	fs.DurationVar(&f.shard.RequestTimeout, "timeout", f.shard.RequestTimeout, "per-request deadline")
	fs.Uint64Var(&f.shard.Seed, "seed", f.shard.Seed, "root random seed (all shards share it: identical ensembles)")
	fs.BoolVar(&f.fullModels, "full-models", false, "serve the full three-architecture ensemble instead of the fast profile")
	fs.IntVar(&f.maxInflight, "max-inflight", 512, "gateway load-shedding bound on concurrently routed requests")
	fs.Float64Var(&f.retryBurst, "retry-burst", 10, "per-client retry budget cap")
	fs.BoolVar(&f.autoscale, "autoscale", true, "run the queue/latency-driven autoscaler")
	fs.IntVar(&f.maxWorkers, "max-workers", 4, "autoscaler ceiling on per-version workers per shard")
	f.tele.RegisterFlags(fs)
	return f
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

// buildFleet constructs the gateway and its initial shards on rt; the
// autoscaler spawns further shards with the same configuration. Per-shard
// health engines are always on: health-aware failover is the point of the
// gateway, so it is not opt-in.
func (f *fleetFlags) buildFleet(rt *obs.Runtime, stderr io.Writer) (*obs.Runtime, *gateway.Gateway, []*gateway.LocalShard, error) {
	if rt == nil {
		// Health engines (the failover signal) ride the span stream, so the
		// gateway always runs a local runtime even with telemetry flags off.
		rt = obs.NewRuntime(0)
	}
	healthOpts := f.tele.Options()
	if healthOpts == nil {
		d := health.DefaultOptions()
		healthOpts = &d
	}
	gw := gateway.New(gateway.Config{MaxInflight: f.maxInflight, RetryBurst: f.retryBurst}, rt)
	spawn := func(id string) (gateway.ShardControl, error) {
		cfg := f.shard
		cfg.ShardLabel = id
		cfg.Health = healthOpts
		if !f.fullModels {
			cfg.NewNetwork = fastNet
			cfg.InjectLayer = 0  // the fast net's only parameterised layer
			cfg.InjectCount = 64 // enough perturbed weights to reliably flip argmax
		}
		srv, err := serve.New(cfg, rt)
		if err != nil {
			return nil, err
		}
		return gateway.NewLocalShard(srv)
	}
	var shards []*gateway.LocalShard
	for i := 0; i < f.shards; i++ {
		sc, err := spawn(fmt.Sprintf("shard-%d", i))
		if err == nil {
			shards = append(shards, sc.(*gateway.LocalShard))
			err = gw.AddShard(sc)
		}
		if err != nil {
			closeFleet(gw, shards)
			return nil, nil, nil, err
		}
	}
	if f.autoscale {
		gw.StartAutoscaler(gateway.AutoscalerConfig{
			MaxWorkers: f.maxWorkers,
			SpawnShard: spawn,
			OnEvent: func(ev gateway.ScaleEvent) {
				fmt.Fprintf(stderr, "mvgateway: autoscale %s shard=%s workers=%d (%s)\n",
					ev.Kind, ev.Shard, ev.Workers, ev.Reason)
			},
		})
	}
	return rt, gw, shards, nil
}

func closeFleet(gw *gateway.Gateway, shards []*gateway.LocalShard) {
	gw.Close()
	for _, sh := range shards {
		sh.Close()
	}
}

func cmdServe(args []string, w, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("mvgateway serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "HTTP listen address")
	f := registerFleetFlags(fs)
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	f.tele.InfoLabel("shards", fmt.Sprintf("%d", f.shards))
	rt, err := f.tele.Start()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.tele.Finish(map[string]any{"command": "gateway-serve"})) }()
	_, gw, shards, err := f.buildFleet(rt, stderr)
	if err != nil {
		return err
	}
	defer closeFleet(gw, shards)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := serve.NewHTTPServer(gw.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(stderr, "mvgateway: routing %d shards on http://%s\n", f.shards, ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errCh:
		return err
	case <-sig:
		fmt.Fprintln(stderr, "mvgateway: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}

func cmdLoadgen(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("mvgateway loadgen", flag.ContinueOnError)
	target := fs.String("target", "http://127.0.0.1:8090", "base URL of the gateway")
	def := serve.DefaultLoadConfig()
	rate := fs.Float64("rate", 1000, "open-loop request rate (req/s)")
	duration := fs.Duration("duration", def.Duration, "load duration")
	timeout := fs.Duration("request-timeout", def.Timeout, "per-request HTTP timeout")
	seed := fs.Uint64("seed", def.Seed, "request-stream seed")
	client := fs.String("client", "loadgen", "X-Client-ID for retry budgeting")
	jsonOut := fs.Bool("json", false, "print the report as JSON")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	rep, err := serve.RunLoad(*target, serve.LoadConfig{
		Rate: *rate, Duration: *duration, Timeout: *timeout, Seed: *seed, ClientID: *client,
	})
	if err != nil {
		return err
	}
	return printReport(w, rep, *jsonOut)
}

func printReport(w io.Writer, rep *serve.LoadReport, asJSON bool) error {
	if asJSON {
		return json.NewEncoder(w).Encode(rep)
	}
	_, err := fmt.Fprintln(w, rep)
	return err
}

// cmdDemo is the multi-shard resilience demonstration: a gateway over N
// in-process shards under open-loop load an order of magnitude beyond the
// single-shard demo workload, with two mid-run faults — one version of one
// shard compromised (the shard's reactive trigger drains and heals it, its
// health engine marking the version critical meanwhile) and one whole shard
// drained, rejuvenated and reinstated (ring failover end to end). It exits non-zero
// if any request failed; degraded answers and 429 shedding are designed
// behaviours, failures are not.
func cmdDemo(args []string, w, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("mvgateway demo", flag.ContinueOnError)
	f := registerFleetFlags(fs)
	rate := fs.Float64("rate", 1000, "open-loop request rate (req/s)")
	duration := fs.Duration("duration", 10*time.Second, "load duration")
	baseline := fs.Float64("baseline-rps", 100,
		"single-shard reference throughput for the scale ratio (the mvserve demo's default workload)")
	jsonOut := fs.Bool("json", false, "print the report as JSON")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	f.tele.InfoLabel("shards", fmt.Sprintf("%d", f.shards))
	rt, err := f.tele.Start()
	if err != nil {
		return err
	}
	var rep *serve.LoadReport
	defer func() {
		err = errors.Join(err, f.tele.Finish(map[string]any{"command": "gateway-demo", "report": rep}))
	}()
	rt, gw, shards, err := f.buildFleet(rt, stderr)
	if err != nil {
		return err
	}
	defer closeFleet(gw, shards)
	if len(shards) > 0 {
		f.tele.Observe(shards[0].Server().Health())
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := serve.NewHTTPServer(gw.Handler())
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(stderr, "mvgateway demo: %d shards on %s, load %.0f req/s for %v\n",
		len(shards), base, *rate, *duration)

	// Fault 1 (t/3): compromise one version of shard-0. The shard's pool
	// sees the divergence and the reactive trigger rejuvenates the version;
	// its health engine marks the version critical until then, which
	// deprioritises the shard in routing.
	go func() {
		time.Sleep(*duration / 3)
		fmt.Fprintln(stderr, "mvgateway demo: compromising shard-0 version 0")
		if len(shards) > 0 {
			if err := shards[0].Compromise(0); err != nil {
				fmt.Fprintln(stderr, "mvgateway demo:", err)
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
		fmt.Fprintf(stderr, "mvgateway demo: draining %s for full rejuvenation\n", sh.ID())
		sh.SetDraining(true)
		if err := sh.Rejuvenate(serve.RejuvManual); err != nil {
			fmt.Fprintln(stderr, "mvgateway demo:", err)
		}
		sh.SetDraining(false)
		fmt.Fprintf(stderr, "mvgateway demo: %s rejuvenated and reinstated\n", sh.ID())
	}()

	rep, err = serve.RunLoad(base, serve.LoadConfig{
		Rate: *rate, Duration: *duration, Timeout: 5 * time.Second,
		Seed: f.shard.Seed, ClientID: "demo",
	})
	if err != nil {
		return err
	}
	if err := printReport(w, rep, *jsonOut); err != nil {
		return err
	}

	reg := rt.Metrics()
	fmt.Fprintf(w, "gateway: %d answered by owner, %d rerouted (health/drain), %d failovers, %d budget retries, %d shed (429), %d exhausted\n",
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
	fmt.Fprintf(w, "fleet: %d shards live, %d rejuvenations (all kinds)\n", len(gw.Shards()), rejuv)
	if *baseline > 0 {
		fmt.Fprintf(w, "scale: %.1f req/s answered = %.1fx the single-shard reference (%.0f req/s)\n",
			rep.Throughput, rep.Throughput / *baseline, *baseline)
	}
	if rep.Failed > 0 || rep.Errors > 0 {
		return fmt.Errorf("demo saw %d failed and %d transport-error requests", rep.Failed, rep.Errors)
	}
	fmt.Fprintln(w, "demo passed: zero failed requests across shard compromise, drain and rejuvenation")
	return nil
}
