// Command mvserve runs the online multi-version inference service: the
// three-version traffic-sign ensemble behind an HTTP API with bounded
// admission, micro-batching, majority voting and zero-downtime rejuvenation.
// `mvserve serve` runs the service, `mvserve loadgen` drives open-loop load at
// one, and `mvserve demo` runs both in-process with a forced compromise and
// the rejuvenation that heals it. Telemetry flags are shared with the other
// binaries; attaching telemetry never changes responses.
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"mvml/internal/cli"
	"mvml/internal/serve"
	"mvml/internal/telemetry"
)

const usageText = `usage:
  mvserve serve   [flags]   run the inference service
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

// serveFlags registers the serving Config and the telemetry flags on fs.
func serveFlags(fs *flag.FlagSet) (*serve.Config, *telemetry.Flags) {
	cfg, tele := serve.DefaultConfig(), &telemetry.Flags{}
	tele.RegisterFlags(fs)
	fs.IntVar(&cfg.Versions, "versions", cfg.Versions, "ensemble size")
	fs.IntVar(&cfg.WorkersPerVersion, "workers", cfg.WorkersPerVersion, "arenas per version: the forwards of the version's one network that may run at once")
	fs.IntVar(&cfg.QueueDepth, "queue", cfg.QueueDepth, "admission queue depth")
	fs.IntVar(&cfg.MaxBatch, "batch", cfg.MaxBatch, "micro-batch size bound (a batch closes sooner when the queue is empty)")
	fs.DurationVar(&cfg.RequestTimeout, "timeout", cfg.RequestTimeout, "per-request deadline")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "root random seed")
	fs.IntVar(&cfg.TrainEpochs, "train-epochs", 0, "train the ensemble this many epochs before serving (0 = untrained)")
	fs.IntVar(&cfg.Dataset.TrainPerClass, "train-per-class", cfg.Dataset.TrainPerClass, "training images per class (with -train-epochs)")
	fs.IntVar(&cfg.InjectCount, "inject-count", cfg.InjectCount, "weights perturbed per compromise event")
	fs.BoolVar(&cfg.ProfileLayers, "profile-layers", false, "time every layer dispatch and count GEMM volumes into the metrics registry")
	fs.DurationVar(&cfg.ProactiveInterval, "proactive", 0, "proactive rejuvenation interval (0 = disabled)")
	fs.IntVar(&cfg.DivergenceWindow, "divergence-window", cfg.DivergenceWindow, "reactive-trigger observation window")
	fs.Float64Var(&cfg.DivergenceThreshold, "divergence-threshold", cfg.DivergenceThreshold, "reactive-trigger disagreement fraction")
	fs.Func("int8-versions", "comma-separated version indices served through the int8 quantized path (e.g. 1 or 0,2)",
		func(s string) (err error) {
			cfg.Int8Versions, err = parseIndexList(s)
			return err
		})
	return &cfg, tele
}

// parseIndexList parses the comma-separated -int8-versions list; a malformed
// entry fails the flag parse. The range is Config.Validate's to check.
func parseIndexList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("malformed version index %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func cmdServe(args []string, w, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("mvserve serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "HTTP listen address")
	cfg, tele := serveFlags(fs)
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return cli.Usagef("%v", err)
	}
	cfg.Health = tele.Options()
	tele.InfoLabel("workers", fmt.Sprintf("%dx%d", cfg.Versions, cfg.WorkersPerVersion))
	rt, err := tele.Start()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, tele.Finish(map[string]any{"command": "serve"})) }()

	s, err := serve.New(*cfg, rt)
	if err != nil {
		return err
	}
	defer s.Close()
	// The server owns the engine (it judges only its own shard's spans);
	// adopt it so the deferred Finish reports on it.
	tele.Observe(s.Health())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := serve.NewHTTPServer(s.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(stderr, "mvserve: serving on http://%s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errCh:
		return err
	case <-sig:
		fmt.Fprintln(stderr, "mvserve: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}

func cmdLoadgen(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("mvserve loadgen", flag.ContinueOnError)
	target := fs.String("target", "http://127.0.0.1:8080", "base URL of the service")
	def := serve.DefaultLoadConfig()
	rate := fs.Float64("rate", def.Rate, "open-loop request rate (req/s)")
	duration := fs.Duration("duration", def.Duration, "load duration")
	timeout := fs.Duration("request-timeout", def.Timeout, "per-request HTTP timeout")
	seed := fs.Uint64("seed", def.Seed, "request-stream seed")
	jsonOut := fs.Bool("json", false, "print the report as JSON")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	if *rate <= 0 || *duration <= 0 {
		return cli.Usagef("-rate %v and -duration %v must be positive", *rate, *duration)
	}
	rep, err := serve.RunLoad(*target, serve.LoadConfig{
		Rate: *rate, Duration: *duration, Timeout: *timeout, Seed: *seed,
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

// cmdDemo is the self-contained resilience demonstration: it brings the
// service up in-process, drives open-loop load, compromises one version
// mid-run, lets the reactive trigger rejuvenate it, and reports the outcome.
// It exits non-zero if any request failed (5xx/transport) — degraded answers
// and 429 rejections are the designed behaviours, failures are not.
func cmdDemo(args []string, w, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("mvserve demo", flag.ContinueOnError)
	cfg, tele := serveFlags(fs)
	def := serve.DefaultLoadConfig()
	rate := fs.Float64("rate", def.Rate, "open-loop request rate (req/s)")
	duration := fs.Duration("duration", def.Duration, "load duration")
	jsonOut := fs.Bool("json", false, "print the report as JSON")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	if *rate <= 0 || *duration <= 0 {
		return cli.Usagef("-rate %v and -duration %v must be positive", *rate, *duration)
	}
	if err := cfg.Validate(); err != nil {
		return cli.Usagef("%v", err)
	}
	cfg.Health = tele.Options()
	tele.InfoLabel("workers", fmt.Sprintf("%dx%d", cfg.Versions, cfg.WorkersPerVersion))
	rt, err := tele.Start()
	if err != nil {
		return err
	}
	var rep *serve.LoadReport
	defer func() { err = errors.Join(err, tele.Finish(map[string]any{"command": "demo", "report": rep})) }()

	s, err := serve.New(*cfg, rt)
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
	fmt.Fprintf(stderr, "mvserve demo: serving on %s, load %.0f req/s for %v\n", base, *rate, *duration)

	// Mid-run fault: compromise version 0 a third of the way in; the
	// divergence monitor should drain and restore it while load continues.
	go func() {
		time.Sleep(*duration / 3)
		fmt.Fprintln(stderr, "mvserve demo: compromising version 0")
		if err := s.Compromise(0); err != nil {
			fmt.Fprintln(stderr, "mvserve demo:", err)
		}
	}()

	rep, err = serve.RunLoad(base, serve.LoadConfig{
		Rate: *rate, Duration: *duration, Timeout: 5 * time.Second, Seed: cfg.Seed,
	})
	if err != nil {
		return err
	}
	if err := printReport(w, rep, *jsonOut); err != nil {
		return err
	}
	if reg := rt.Metrics(); reg != nil {
		fmt.Fprintf(w, "rejuvenations: %d reactive, %d proactive; degraded answers: %d\n",
			reg.Counter("mvserve_rejuvenations_total", "kind", serve.RejuvReactive).Value(),
			reg.Counter("mvserve_rejuvenations_total", "kind", serve.RejuvProactive).Value(),
			reg.Counter("mvserve_degraded_total").Value())
	}
	if rep.Failed > 0 || rep.Errors > 0 {
		return fmt.Errorf("demo saw %d failed and %d transport-error requests", rep.Failed, rep.Errors)
	}
	fmt.Fprintln(w, "demo passed: zero failed requests across compromise and rejuvenation")
	return nil
}
