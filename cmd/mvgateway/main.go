// Command mvgateway runs the multi-shard serving gateway: a fixed set of
// -shards independent multi-version inference shards behind a
// consistent-hash router with state-aware failover, per-client retry budgets
// and front-door load shedding. `mvgateway serve` runs the gateway over
// in-process shards, `mvgateway loadgen` drives open-loop load at one, and
// `mvgateway demo` is the self-contained resilience demo (shard
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
	shard               serve.Config // every shard's serving configuration
	shards, maxInflight int
	retryBurst          float64
	fullModels          bool
	tele                telemetry.Flags
}

func registerFleetFlags(fs *flag.FlagSet) *fleetFlags {
	f := &fleetFlags{shard: serve.DefaultConfig()}
	fs.IntVar(&f.shards, "shards", 4, "number of serving shards")
	fs.IntVar(&f.shard.Versions, "versions", f.shard.Versions, "ensemble size per shard")
	fs.IntVar(&f.shard.WorkersPerVersion, "workers", f.shard.WorkersPerVersion, "workers per version per shard")
	fs.IntVar(&f.shard.QueueDepth, "queue", f.shard.QueueDepth, "per-shard admission queue depth")
	fs.IntVar(&f.shard.MaxBatch, "batch", f.shard.MaxBatch, "per-shard micro-batch flush size")
	fs.DurationVar(&f.shard.RequestTimeout, "timeout", f.shard.RequestTimeout, "per-request deadline")
	fs.Uint64Var(&f.shard.Seed, "seed", f.shard.Seed, "root random seed (all shards share it: identical ensembles)")
	fs.BoolVar(&f.fullModels, "full-models", false, "serve the full three-architecture ensemble instead of the fast profile")
	fs.IntVar(&f.maxInflight, "max-inflight", 512, "gateway load-shedding bound on concurrently routed requests")
	fs.Float64Var(&f.retryBurst, "retry-burst", 10, "per-client retry budget cap")
	f.tele.RegisterFlags(fs)
	return f
}

// parse parses fs, rejects a fleet without shards before anything starts and
// labels the build info with the shard count.
func (f *fleetFlags) parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	if f.shards < 1 {
		return cli.Usagef("-shards %d: need at least one shard", f.shards)
	}
	f.tele.InfoLabel("shards", fmt.Sprintf("%d", f.shards))
	return nil
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

// buildFleet builds the gateway and its -shards shards on rt. Routing reads
// each shard's own state, so a per-shard health engine is opt-in (-health).
func (f *fleetFlags) buildFleet(rt *obs.Runtime) (*obs.Runtime, *gateway.Gateway, []*gateway.LocalShard, error) {
	if rt == nil {
		// The demo's report reads the gateway counters, so the fleet runs a
		// local runtime even with telemetry flags off.
		rt = obs.NewRuntime(0)
	}
	gw := gateway.New(gateway.Config{MaxInflight: f.maxInflight, RetryBurst: f.retryBurst}, rt)
	cfg := f.shard
	cfg.Health = f.tele.Options()
	if !f.fullModels {
		cfg.NewNetwork = fastNet
		cfg.InjectLayer = 0  // the fast net's only parameterised layer
		cfg.InjectCount = 64 // enough perturbed weights to reliably flip argmax
	}
	var shards []*gateway.LocalShard
	for i := 0; i < f.shards; i++ {
		cfg.ShardLabel = fmt.Sprintf("shard-%d", i)
		srv, err := serve.New(cfg, rt)
		var sh *gateway.LocalShard
		if err == nil {
			sh, err = gateway.NewLocalShard(srv)
		}
		if err == nil {
			shards = append(shards, sh)
			err = gw.AddShard(sh)
		}
		if err != nil {
			closeFleet(gw, shards)
			return nil, nil, nil, err
		}
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
	if err := f.parse(fs, args, stderr); err != nil {
		return err
	}
	rt, err := f.tele.Start()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.tele.Finish(map[string]any{"command": "gateway-serve"})) }()
	_, gw, shards, err := f.buildFleet(rt)
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
	if *rate <= 0 || *duration <= 0 {
		return cli.Usagef("-rate %v and -duration %v must be positive", *rate, *duration)
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
// single-shard demo workload, with two mid-run faults — at t/3 one version of
// shard-0 compromised (the shard reads Degraded, and is routed around, until
// its reactive trigger drains and heals it), at 2t/3 shard-1 drained for t/6
// (its ring successors absorb its keyspace), then rejuvenated and reinstated.
// It exits non-zero if any request failed, or if a fleet of two or more
// shards rerouted no request around the drain; degraded answers and 429
// shedding are designed behaviours, failures are not.
func cmdDemo(args []string, w, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("mvgateway demo", flag.ContinueOnError)
	f := registerFleetFlags(fs)
	rate := fs.Float64("rate", 1000, "open-loop request rate (req/s)")
	duration := fs.Duration("duration", 10*time.Second, "load duration")
	jsonOut := fs.Bool("json", false, "print the report as JSON")
	if err := f.parse(fs, args, stderr); err != nil {
		return err
	}
	if *rate <= 0 || *duration <= 0 {
		return cli.Usagef("-rate %v and -duration %v must be positive", *rate, *duration)
	}
	rt, err := f.tele.Start()
	if err != nil {
		return err
	}
	var rep *serve.LoadReport
	defer func() {
		err = errors.Join(err, f.tele.Finish(map[string]any{"command": "gateway-demo", "report": rep}))
	}()
	rt, gw, shards, err := f.buildFleet(rt)
	if err != nil {
		return err
	}
	defer closeFleet(gw, shards)
	f.tele.Observe(shards[0].Server().Health())

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

	go func() {
		time.Sleep(*duration / 3)
		fmt.Fprintln(stderr, "mvgateway demo: compromising shard-0 version 0")
		if err := shards[0].Compromise(0); err != nil {
			fmt.Fprintln(stderr, "mvgateway demo:", err)
		}
		time.Sleep(*duration / 3)
		if len(shards) < 2 {
			return
		}
		sh := shards[1]
		fmt.Fprintf(stderr, "mvgateway demo: draining %s for %v, then rejuvenating it\n", sh.ID(), *duration/6)
		sh.SetDraining(true)
		time.Sleep(*duration / 6)
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
	rerouted := reg.Counter("mv_gateway_rerouted_total").Value()
	fmt.Fprintf(w, "gateway: %d answered by owner, %d rerouted (level/drain), %d failovers, %d budget retries, %d shed (429), %d exhausted\n",
		reg.Counter("mv_gateway_routed_total").Value(),
		rerouted,
		reg.Counter("mv_gateway_failovers_total").Value(),
		reg.Counter("mv_gateway_retries_total").Value(),
		reg.Counter("mv_gateway_shed_total").Value(),
		reg.Counter("mv_gateway_failed_total").Value())
	rejuv := uint64(0)
	for _, kind := range []string{serve.RejuvReactive, serve.RejuvProactive, serve.RejuvManual} {
		rejuv += reg.Counter("mvserve_rejuvenations_total", "kind", kind).Value()
	}
	fmt.Fprintf(w, "fleet: %d shards live, %d rejuvenations (all kinds)\n", len(gw.Shards()), rejuv)
	if rep.Failed > 0 || rep.Errors > 0 {
		return fmt.Errorf("demo saw %d failed and %d transport-error requests", rep.Failed, rep.Errors)
	}
	if len(shards) >= 2 && rerouted == 0 {
		return fmt.Errorf("demo rerouted no request around the drained %s", shards[1].ID())
	}
	fmt.Fprintln(w, "demo passed: zero failed requests across shard compromise, drain and rejuvenation")
	return nil
}
