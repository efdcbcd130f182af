// Command mvserve runs the online multi-version inference service: -shards
// shards of the three-version traffic-sign ensemble, two or more behind a
// consistent-hash gateway. `serve` runs it, `loadgen` drives open-loop load
// at it, and `demo` runs both in-process through a forced compromise (in a
// fleet, also a shard drain) and the rejuvenation that heals it. Telemetry
// flags are shared with the other binaries and never change responses.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
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
  mvserve serve   [flags]   run the inference service (-shards N >= 2: a gateway over N shards)
  mvserve loadgen [flags]   open-loop load against a running service
  mvserve demo    [flags]   self-contained resilience demo (server+load+rejuvenation)
run "mvserve <subcommand> -h" for flags
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
	return cli.Run("mvserve", usageText, commands, args, stdout, stderr)
}

// fleetFlags is the command line serve and demo share: every shard's serving
// configuration, the fleet's size and gateway bounds, and telemetry.
type fleetFlags struct {
	shard               serve.Config
	shards, maxInflight int
	retryBurst          float64
	fastModels          bool
	tele                telemetry.Flags
}

// serveFlags registers the fleet, serving Config and telemetry flags on fs.
func serveFlags(fs *flag.FlagSet) *fleetFlags {
	f := &fleetFlags{shard: serve.DefaultConfig()}
	cfg := &f.shard
	f.tele.RegisterFlags(fs)
	fs.IntVar(&f.shards, "shards", 1, "serving shards; two or more run behind a consistent-hash gateway")
	fs.IntVar(&f.maxInflight, "max-inflight", 512, "gateway load-shedding bound on concurrently routed requests (needs -shards >= 2)")
	fs.Float64Var(&f.retryBurst, "retry-burst", 10, "gateway per-client retry budget cap (needs -shards >= 2)")
	fs.BoolVar(&f.fastModels, "fast-models", false, "serve one flatten+dense network per version instead of the three-architecture ensemble")
	fs.IntVar(&cfg.Versions, "versions", cfg.Versions, "ensemble size per shard")
	fs.IntVar(&cfg.WorkersPerVersion, "workers", cfg.WorkersPerVersion, "arenas per version: the forwards of the version's one network that may run at once")
	fs.IntVar(&cfg.QueueDepth, "queue", cfg.QueueDepth, "per-shard admission queue depth")
	fs.IntVar(&cfg.MaxBatch, "batch", cfg.MaxBatch, "micro-batch size bound (a batch closes sooner when the queue is empty)")
	fs.DurationVar(&cfg.RequestTimeout, "timeout", cfg.RequestTimeout, "per-request deadline")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "root random seed (all shards share it: identical ensembles)")
	fs.IntVar(&cfg.TrainEpochs, "train-epochs", 0, "train the ensemble this many epochs before serving (0 = untrained)")
	fs.IntVar(&cfg.Dataset.TrainPerClass, "train-per-class", cfg.Dataset.TrainPerClass, "training images per class (with -train-epochs)")
	fs.IntVar(&cfg.InjectCount, "inject-count", cfg.InjectCount, "weights perturbed per compromise event (default 64 with -fast-models)")
	fs.BoolVar(&cfg.ProfileLayers, "profile-layers", false, "time every layer dispatch and count GEMM volumes into the metrics registry")
	fs.DurationVar(&cfg.ProactiveInterval, "proactive", 0, "proactive rejuvenation interval (0 = disabled)")
	fs.IntVar(&cfg.DivergenceWindow, "divergence-window", cfg.DivergenceWindow, "reactive-trigger observation window")
	fs.Float64Var(&cfg.DivergenceThreshold, "divergence-threshold", cfg.DivergenceThreshold, "reactive-trigger disagreement fraction")
	fs.Func("int8-versions", "comma-separated version indices served through the int8 quantized path (e.g. 1 or 0,2)",
		func(s string) (err error) {
			cfg.Int8Versions, err = parseIndexList(s)
			return err
		})
	return f
}

// parse parses fs and settles the shard config. What Validate refuses, no
// shard, and gateway bounds on one shard are usage errors.
func (f *fleetFlags) parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	if f.shards < 1 {
		return cli.Usagef("-shards %d: need at least one shard", f.shards)
	}
	if f.shards == 1 && (set["max-inflight"] || set["retry-burst"]) {
		return cli.Usagef("-max-inflight and -retry-burst bound the gateway, which runs only with -shards 2 or more")
	}
	if f.fastModels {
		f.shard.NewNetwork = fastNet
		f.shard.InjectLayer = 0 // the fast net's only parameterised layer
		if !set["inject-count"] {
			f.shard.InjectCount = 64 // enough perturbed weights to reliably flip argmax
		}
	}
	if err := f.shard.Validate(); err != nil {
		return cli.Usagef("%v", err)
	}
	f.shard.Health = f.tele.Options()
	f.tele.InfoLabel("shards", strconv.Itoa(f.shards))
	f.tele.InfoLabel("workers", fmt.Sprintf("%dx%d", f.shard.Versions, f.shard.WorkersPerVersion))
	return nil
}

// parseIndexList parses the comma-separated -int8-versions list; a malformed
// entry fails the flag parse. The range is Config.Validate's to check.
func parseIndexList(s string) (out []int, err error) {
	if s == "" {
		return nil, nil
	}
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("malformed version index %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// fastNet is the -fast-models profile: one flatten+dense classifier, the same
// weights in every version, fast enough that one CPU drives a 4-shard fleet
// at 4-figure request rates through compromise and rejuvenation.
func fastNet(version int, _ *xrand.Rand) (*nn.Network, error) {
	return &nn.Network{
		Name: fmt.Sprintf("fast-%d", version),
		Layers: []nn.Layer{
			nn.NewFlatten("flat"),
			nn.NewDense("fc", nn.InputChannels*nn.InputSize*nn.InputSize, signs.NumClasses, xrand.New(1234)),
		},
	}, nil
}

// fleet is a run's shards and, for two or more, the gateway across them.
type fleet struct {
	rt      *obs.Runtime
	shards  []*serve.Server
	gw      *gateway.Gateway // nil for a single shard
	handler http.Handler     // what the fleet serves: the gateway's API or the one shard's
}

// buildFleet builds -shards shards on rt, behind a gateway when there are two
// or more. Routing reads each shard's own state; a health engine is opt-in.
func (f *fleetFlags) buildFleet(rt *obs.Runtime) (*fleet, error) {
	fl := &fleet{rt: rt}
	if f.shards > 1 {
		fl.gw = gateway.New(gateway.Config{MaxInflight: f.maxInflight, RetryBurst: f.retryBurst}, rt)
	}
	cfg := f.shard
	for i := 0; i < f.shards; i++ {
		if fl.gw != nil {
			cfg.ShardLabel = fmt.Sprintf("shard-%d", i)
		}
		srv, err := serve.New(cfg, rt)
		if err == nil {
			fl.shards = append(fl.shards, srv)
			if fl.gw != nil {
				var sh *gateway.LocalShard
				if sh, err = gateway.NewLocalShard(srv); err == nil {
					err = fl.gw.AddShard(sh)
				}
			}
		}
		if err != nil {
			fl.close()
			return nil, err
		}
	}
	fl.handler = fl.shards[0].Handler()
	if fl.gw != nil {
		fl.handler = fl.gw.Handler()
	}
	return fl, nil
}

func (fl *fleet) close() {
	if fl.gw != nil {
		fl.gw.Close()
	}
	for _, s := range fl.shards {
		s.Close()
	}
}

// runFleet serves the fleet on addr and runs body against it (served yields
// Serve's error), then stops it all and writes the telemetry artifacts.
func (f *fleetFlags) runFleet(addr, command string, body func(fl *fleet, url string, served <-chan error) (*loadReport, error)) (err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	rt, err := f.tele.Start()
	if err != nil {
		return err
	}
	if rt == nil && command == "demo" {
		rt = obs.NewRuntime(0) // the demo's report reads the counters, telemetry or not
	}
	extra := map[string]any{"command": command}
	defer func() { err = errors.Join(err, f.tele.Finish(extra)) }()
	fl, err := f.buildFleet(rt)
	if err != nil {
		return err
	}
	defer fl.close()
	// Each shard owns its engine (it judges only its own spans); adopt the
	// first so Finish reports on it.
	f.tele.Observe(fl.shards[0].Health())
	srv := serve.NewHTTPServer(fl.handler)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err = errors.Join(err, srv.Shutdown(ctx))
	}()
	rep, err := body(fl, "http://"+ln.Addr().String(), served)
	if rep != nil {
		extra["report"] = rep
	}
	return err
}

func cmdServe(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("mvserve serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "HTTP listen address")
	f := serveFlags(fs)
	if err := f.parse(fs, args, stderr); err != nil {
		return err
	}
	return f.runFleet(*addr, "serve", func(_ *fleet, url string, served <-chan error) (*loadReport, error) {
		fmt.Fprintf(stderr, "mvserve: serving %d shard(s) on %s\n", f.shards, url)
		sig, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		select {
		case err := <-served:
			return nil, err
		case <-sig.Done():
			fmt.Fprintln(stderr, "mvserve: shutting down")
			return nil, nil
		}
	})
}

// loadFlags registers the load schedule and report flags on fs.
func loadFlags(fs *flag.FlagSet) (*loadConfig, *bool) {
	lc := &loadConfig{Timeout: 5 * time.Second}
	fs.Float64Var(&lc.Rate, "rate", 100, "open-loop request rate (req/s)")
	fs.DurationVar(&lc.Duration, "duration", 3*time.Second, "load duration")
	return lc, fs.Bool("json", false, "print the report as JSON")
}

func cmdLoadgen(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("mvserve loadgen", flag.ContinueOnError)
	target := fs.String("target", "http://127.0.0.1:8080", "base URL of the service")
	lc, jsonOut := loadFlags(fs)
	fs.DurationVar(&lc.Timeout, "request-timeout", 2*time.Second, "per-request HTTP timeout")
	fs.Uint64Var(&lc.Seed, "seed", 38, "request-stream seed")
	fs.StringVar(&lc.ClientID, "client", "loadgen", "X-Client-ID for the gateway's retry budgeting")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	rep, err := runLoad(*target, *lc)
	if err != nil {
		return err
	}
	return printReport(w, rep, *jsonOut)
}

func printReport(w io.Writer, rep *loadReport, asJSON bool) error {
	if asJSON {
		return json.NewEncoder(w).Encode(rep)
	}
	_, err := fmt.Fprintln(w, rep)
	return err
}

// cmdDemo is the self-contained resilience demonstration: open-loop load at
// an in-process fleet whose first shard has version 0 compromised at t/3 (its
// reactive trigger heals it); with two or more shards, shard-1 is also drained
// at 2t/3 for t/6, then rejuvenated. It fails on any failed request (5xx or
// transport) or a fleet that rerouted none; degraded answers and 429s are not.
func cmdDemo(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("mvserve demo", flag.ContinueOnError)
	f := serveFlags(fs)
	lc, jsonOut := loadFlags(fs)
	if err := f.parse(fs, args, stderr); err != nil {
		return err
	}
	if _, err := lc.requests(); err != nil {
		return err
	}
	lc.Seed, lc.ClientID = f.shard.Seed, "demo"
	return f.runFleet("127.0.0.1:0", "demo", func(fl *fleet, url string, _ <-chan error) (*loadReport, error) {
		fmt.Fprintf(stderr, "mvserve demo: %d shard(s) on %s, load %.0f req/s for %v\n", f.shards, url, lc.Rate, lc.Duration)
		faults := make(chan struct{})
		go func() {
			defer close(faults)
			time.Sleep(lc.Duration / 3)
			fmt.Fprintln(stderr, "mvserve demo: compromising version 0 of the first shard")
			if err := fl.shards[0].Compromise(0); err != nil {
				fmt.Fprintln(stderr, "mvserve demo:", err)
			}
			if len(fl.shards) < 2 {
				return
			}
			time.Sleep(lc.Duration / 3)
			s := fl.shards[1]
			fmt.Fprintf(stderr, "mvserve demo: draining %s for %v, then rejuvenating it\n", s.ShardLabel(), lc.Duration/6)
			s.SetDraining(true)
			time.Sleep(lc.Duration / 6)
			if err := s.RejuvenateAll(serve.RejuvManual); err != nil {
				fmt.Fprintln(stderr, "mvserve demo:", err)
			}
			s.SetDraining(false)
			fmt.Fprintf(stderr, "mvserve demo: %s rejuvenated and reinstated\n", s.ShardLabel())
		}()

		rep, err := runLoad(url, *lc)
		<-faults // the fleet closes after the fault schedule's last step
		if err == nil {
			err = printReport(w, rep, *jsonOut)
		}
		if err != nil {
			return rep, err
		}
		reg := fl.rt.Metrics()
		rejuv := func(kind string) uint64 { return reg.Counter("mvserve_rejuvenations_total", "kind", kind).Value() }
		fmt.Fprintf(w, "rejuvenations: %d reactive, %d proactive; degraded answers: %d\n",
			rejuv(serve.RejuvReactive), rejuv(serve.RejuvProactive), reg.Counter("mvserve_degraded_total").Value())
		gw := func(name string) uint64 { return reg.Counter("mv_gateway_" + name + "_total").Value() }
		if fl.gw != nil {
			fmt.Fprintf(w, "gateway: %d answered by owner, %d rerouted (level/drain), %d failovers, %d budget retries, %d shed (429), %d exhausted\n",
				gw("routed"), gw("rerouted"), gw("failovers"), gw("retries"), gw("shed"), gw("failed"))
			all := rejuv(serve.RejuvReactive) + rejuv(serve.RejuvProactive) + rejuv(serve.RejuvManual)
			fmt.Fprintf(w, "fleet: %d shards live, %d rejuvenations (all kinds)\n", len(fl.gw.Shards()), all)
		}
		switch {
		case rep.Failed > 0 || rep.Errors > 0:
			return rep, fmt.Errorf("demo saw %d failed and %d transport-error requests", rep.Failed, rep.Errors)
		case fl.gw != nil && gw("rerouted") == 0:
			return rep, fmt.Errorf("demo rerouted no request around the drained %s", fl.shards[1].ShardLabel())
		}
		fmt.Fprintln(w, "demo passed: zero failed requests across compromise and rejuvenation")
		return rep, nil
	})
}
