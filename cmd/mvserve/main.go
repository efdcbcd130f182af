// Command mvserve runs the online multi-version inference service: the
// three-version traffic-sign ensemble behind an HTTP API with bounded
// admission, micro-batching, majority voting and zero-downtime rejuvenation.
//
// Usage:
//
//	mvserve serve -addr :8080              # run the service
//	mvserve loadgen -target http://host:8080 -rate 200 -duration 5s
//	mvserve demo                           # in-process server + open-loop load
//	                                       # + forced compromise + rejuvenation
//
// Telemetry (shared by all binaries): -metrics-addr serves live Prometheus
// exposition, -telemetry-out writes the end-of-run JSON summary, -spans-out
// streams the JSONL span trace. Attaching telemetry never changes responses.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mvml/internal/serve"
	"mvml/internal/telemetry"
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
		fmt.Fprintln(os.Stderr, "mvserve:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  mvserve serve   [flags]   run the inference service
  mvserve loadgen [flags]   open-loop load against a running service
  mvserve demo    [flags]   self-contained resilience demo (server+load+rejuvenation)
run "mvserve <subcommand> -h" for flags`)
}

// serveFlags registers the serving Config on fs and returns a loader.
func serveFlags(fs *flag.FlagSet) func() serve.Config {
	def := serve.DefaultConfig()
	versions := fs.Int("versions", def.Versions, "ensemble size")
	workers := fs.Int("workers", def.WorkersPerVersion, "workers per version (each an arena on the version's one network)")
	queue := fs.Int("queue", def.QueueDepth, "admission queue depth")
	batch := fs.Int("batch", def.MaxBatch, "micro-batch size bound (a batch closes sooner when the queue is empty)")
	timeout := fs.Duration("timeout", def.RequestTimeout, "per-request deadline")
	seed := fs.Uint64("seed", def.Seed, "root random seed")
	epochs := fs.Int("train-epochs", 0, "train the ensemble this many epochs before serving (0 = untrained)")
	perClass := fs.Int("train-per-class", def.Dataset.TrainPerClass, "training images per class (with -train-epochs)")
	injects := fs.Int("inject-count", def.InjectCount, "weights perturbed per compromise event")
	int8Versions := fs.String("int8-versions", "", "comma-separated version indices served through the int8 quantized path (e.g. 1 or 0,2)")
	profileLayers := fs.Bool("profile-layers", false, "time every layer dispatch and count GEMM volumes into the metrics registry")
	proactive := fs.Duration("proactive", 0, "proactive rejuvenation interval (0 = disabled)")
	window := fs.Int("divergence-window", def.DivergenceWindow, "reactive-trigger observation window")
	threshold := fs.Float64("divergence-threshold", def.DivergenceThreshold, "reactive-trigger disagreement fraction")
	return func() serve.Config {
		cfg := serve.DefaultConfig()
		cfg.Int8Versions = parseIndexList(*int8Versions)
		cfg.Versions = *versions
		cfg.WorkersPerVersion = *workers
		cfg.QueueDepth = *queue
		cfg.MaxBatch = *batch
		cfg.RequestTimeout = *timeout
		cfg.Seed = *seed
		cfg.TrainEpochs = *epochs
		cfg.Dataset.TrainPerClass = *perClass
		cfg.InjectCount = *injects
		cfg.ProfileLayers = *profileLayers
		cfg.ProactiveInterval = *proactive
		cfg.DivergenceWindow = *window
		cfg.DivergenceThreshold = *threshold
		return cfg
	}
}

// parseIndexList parses a comma-separated list of non-negative version
// indices; malformed entries are dropped (Config.Validate still rejects
// out-of-range indices).
func parseIndexList(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "mvserve: ignoring malformed version index %q\n", part)
			continue
		}
		out = append(out, v)
	}
	return out
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("mvserve serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "HTTP listen address")
	loadCfg := serveFlags(fs)
	var tele telemetry.Flags
	tele.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := loadCfg()
	cfg.Health = tele.Options()
	tele.InfoLabel("workers", fmt.Sprintf("%dx%d", cfg.Versions, cfg.WorkersPerVersion))
	rt, err := tele.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := tele.Finish(map[string]any{"command": "serve"}); err != nil {
			fmt.Fprintln(os.Stderr, "mvserve:", err)
		}
	}()

	s, err := serve.New(cfg, rt)
	if err != nil {
		return err
	}
	defer s.Close()
	// The server owns the engine (verdicts drive rejuvenation); adopt it so
	// the deferred Finish reports on it. Rule alerts feed the same engine.
	tele.Observe(s.Health())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := serve.NewHTTPServer(s.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "mvserve: serving on http://%s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case <-sig:
		fmt.Fprintln(os.Stderr, "mvserve: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}

func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("mvserve loadgen", flag.ExitOnError)
	target := fs.String("target", "http://127.0.0.1:8080", "base URL of the service")
	def := serve.DefaultLoadConfig()
	rate := fs.Float64("rate", def.Rate, "open-loop request rate (req/s)")
	duration := fs.Duration("duration", def.Duration, "load duration")
	timeout := fs.Duration("request-timeout", def.Timeout, "per-request HTTP timeout")
	seed := fs.Uint64("seed", def.Seed, "request-stream seed")
	jsonOut := fs.Bool("json", false, "print the report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := serve.RunLoad(*target, serve.LoadConfig{
		Rate: *rate, Duration: *duration, Timeout: *timeout, Seed: *seed,
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

// cmdDemo is the self-contained resilience demonstration: it brings the
// service up in-process, drives open-loop load, compromises one version
// mid-run, lets the reactive trigger rejuvenate it, and reports the outcome.
// It exits non-zero if any request failed (5xx/transport) — degraded answers
// and 429 rejections are the designed behaviours, failures are not.
func cmdDemo(args []string) error {
	fs := flag.NewFlagSet("mvserve demo", flag.ExitOnError)
	loadCfg := serveFlags(fs)
	def := serve.DefaultLoadConfig()
	rate := fs.Float64("rate", def.Rate, "open-loop request rate (req/s)")
	duration := fs.Duration("duration", def.Duration, "load duration")
	jsonOut := fs.Bool("json", false, "print the report as JSON")
	var tele telemetry.Flags
	tele.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := loadCfg()
	cfg.Health = tele.Options()
	tele.InfoLabel("workers", fmt.Sprintf("%dx%d", cfg.Versions, cfg.WorkersPerVersion))
	rt, err := tele.Start()
	if err != nil {
		return err
	}

	// The demo leans on the reactive trigger: make it responsive enough to
	// fire within the run unless the operator tuned it explicitly.
	s, err := serve.New(cfg, rt)
	if err != nil {
		return err
	}
	defer s.Close()
	tele.Observe(s.Health())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := serve.NewHTTPServer(s.Handler())
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "mvserve demo: serving on %s, load %.0f req/s for %v\n", base, *rate, *duration)

	// Mid-run fault: compromise version 0 a third of the way in; the
	// divergence monitor should drain and restore it while load continues.
	go func() {
		time.Sleep(*duration / 3)
		fmt.Fprintln(os.Stderr, "mvserve demo: compromising version 0")
		if err := s.Compromise(0); err != nil {
			fmt.Fprintln(os.Stderr, "mvserve demo:", err)
		}
	}()

	rep, err := serve.RunLoad(base, serve.LoadConfig{
		Rate: *rate, Duration: *duration, Timeout: 5 * time.Second, Seed: cfg.Seed,
	})
	if err != nil {
		return err
	}
	if err := printReport(rep, *jsonOut); err != nil {
		return err
	}
	if rt != nil {
		reactive := rt.Metrics().Counter("mvserve_rejuvenations_total", "kind", serve.RejuvReactive)
		proactive := rt.Metrics().Counter("mvserve_rejuvenations_total", "kind", serve.RejuvProactive)
		degraded := rt.Metrics().Counter("mvserve_degraded_total")
		fmt.Printf("rejuvenations: %d reactive, %d proactive; degraded answers: %d\n",
			reactive.Value(), proactive.Value(), degraded.Value())
	}
	if err := tele.Finish(map[string]any{"command": "demo", "report": rep}); err != nil {
		fmt.Fprintln(os.Stderr, "mvserve:", err)
	}
	if rep.Failed > 0 || rep.Errors > 0 {
		return fmt.Errorf("demo saw %d failed and %d transport-error requests", rep.Failed, rep.Errors)
	}
	fmt.Println("demo passed: zero failed requests across compromise and rejuvenation")
	return nil
}
