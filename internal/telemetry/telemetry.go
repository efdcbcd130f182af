// Package telemetry is the command-line wiring of the running system's
// telemetry — the obs runtime and the streaming health engine — behind one
// flag struct. It is the one package that imports both, and it holds nothing
// else.
package telemetry

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mvml/internal/health"
	"mvml/internal/obs"
)

// Flags is the shared telemetry command line: every instrumented cmd/ binary
// registers the same flag set, calls Start before its run and Finish after.
// Telemetry is opt-in — with no artifact, endpoint or health flag set, Start
// returns a nil Runtime and the whole stack runs uninstrumented (nil no-op
// handles).
type Flags struct {
	// MetricsAddr serves Prometheus text exposition on this address
	// ("host:port") for the lifetime of the process when non-empty.
	MetricsAddr string
	// SummaryPath receives the end-of-run JSON summary. Defaults to
	// DefaultSummaryPath when telemetry is enabled by another flag.
	SummaryPath string
	// SpansPath streams every published span as JSONL for the lifetime of the
	// run (the input of cmd/mvtrace): the one record of every compromise,
	// divergence and rejuvenation.
	SpansPath string
	// Pprof mounts net/http/pprof under /debug/pprof/ on the metrics
	// endpoint (requires MetricsAddr).
	Pprof bool

	// Health turns the streaming health engine on (and enables telemetry);
	// its report is the replay of the span export (mvtrace health).
	Health bool

	infoKV    []string
	rt        *obs.Runtime
	srv       *http.Server
	ln        net.Listener
	spansFile *os.File
	engine    *health.Engine
}

// DefaultSummaryPath is where the JSON run summary lands when telemetry is
// enabled without an explicit -telemetry-out.
const DefaultSummaryPath = "mvml-telemetry.json"

// MetricBuildInfo is the constant-1 gauge identifying the emitting binary:
// go version, binary name, and whatever extra labels the binary added via
// InfoLabel (e.g. its workers configuration).
const MetricBuildInfo = "mv_build_info"

// shutdownGrace bounds how long Finish waits for in-flight scrapes before
// forcing the metrics endpoint closed.
const shutdownGrace = 5 * time.Second

// RegisterFlags installs the telemetry flags on fs.
func (f *Flags) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "",
		"serve Prometheus metrics on this address (e.g. :9090) and enable telemetry")
	fs.StringVar(&f.SummaryPath, "telemetry-out", "",
		fmt.Sprintf("write the JSON telemetry summary here and enable telemetry (default %s when another telemetry flag is set)", DefaultSummaryPath))
	fs.StringVar(&f.SpansPath, "spans-out", "",
		"stream the JSONL span trace here and enable telemetry (analyse with mvtrace)")
	fs.BoolVar(&f.Pprof, "pprof", false,
		"mount net/http/pprof under /debug/pprof/ on the metrics endpoint")
	fs.BoolVar(&f.Health, "health", false,
		"attach the streaming health engine (SLO budgets, anomaly detection, online alpha) to the span stream and enable telemetry")
}

// InfoLabel adds one label pair to the mv_build_info gauge; call before
// Start (binaries use it to expose run configuration such as worker counts).
func (f *Flags) InfoLabel(key, value string) {
	f.infoKV = append(f.infoKV, key, value)
}

// Enabled reports whether any flag turns collection on.
func (f *Flags) Enabled() bool {
	return f.MetricsAddr != "" || f.SummaryPath != "" || f.SpansPath != "" || f.Health
}

// Options returns the health engine options when the engine is on (the
// defaults: the engine's parameters are constants, shared with every replay
// of the export), or nil when it is off. Serving binaries hand them to
// serve.Config (the server owns its engine, filtered to its shard) and
// Observe the result.
func (f *Flags) Options() *health.Options {
	if !f.Health {
		return nil
	}
	opts := health.DefaultOptions()
	return &opts
}

// Start builds the Runtime and, when requested, brings up the metrics
// endpoint and the span exporter. It returns (nil, nil) when telemetry is
// disabled.
func (f *Flags) Start() (*obs.Runtime, error) {
	if !f.Enabled() {
		return nil, nil
	}
	if f.SummaryPath == "" {
		f.SummaryPath = DefaultSummaryPath
	}
	f.rt = obs.NewRuntime(0)
	reg := f.rt.Metrics()
	reg.Help(MetricBuildInfo, "Constant 1; labels identify the emitting binary and its configuration.")
	reg.Gauge(MetricBuildInfo, append([]string{
		"binary", filepath.Base(os.Args[0]),
		"go_version", runtime.Version(),
	}, f.infoKV...)...).Set(1)
	if f.SpansPath != "" {
		file, err := os.Create(f.SpansPath)
		if err != nil {
			return nil, fmt.Errorf("obs: span export: %w", err)
		}
		f.spansFile = file
		f.rt.Spans().SetWriter(file)
	}
	if f.MetricsAddr != "" {
		ln, err := net.Listen("tcp", f.MetricsAddr)
		if err != nil {
			return nil, fmt.Errorf("obs: metrics listener: %w", err)
		}
		f.ln = ln
		f.srv = &http.Server{Handler: f.debugMux()}
		srv := f.srv
		go func() { _ = srv.Serve(ln) }()
		fmt.Fprintf(os.Stderr, "obs: serving metrics on http://%s/metrics\n", ln.Addr())
		if f.Pprof {
			fmt.Fprintf(os.Stderr, "obs: serving pprof on http://%s/debug/pprof/\n", ln.Addr())
		}
	}
	return f.rt, nil
}

// debugMux routes the metrics endpoint: /metrics for exposition, a plain
// index at /, and (behind -pprof) the net/http/pprof handlers under /debug/.
func (f *Flags) debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", f.rt.Metrics().Handler())
	pprofOn := f.Pprof
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" && r.URL.Path != "/debug" && r.URL.Path != "/debug/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "mvml debug index")
		fmt.Fprintln(w, "  /metrics       Prometheus text exposition")
		if pprofOn {
			fmt.Fprintln(w, "  /debug/pprof/  runtime profiles (heap, goroutine, profile, trace, ...)")
		}
	})
	if f.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Observe adopts an engine created elsewhere (a server owns its own), so that
// Finish reports on it.
func (f *Flags) Observe(e *health.Engine) {
	if e != nil {
		f.engine = e
	}
}

// Finish prints the final health verdict, closes the span exporter, writes
// the summary and shuts the endpoint down. Every step is attempted even when
// an earlier one failed; the first error is returned. extra is embedded
// verbatim in the summary's "extra" field. Safe to call when telemetry is
// disabled.
func (f *Flags) Finish(extra map[string]any) error {
	if f.engine != nil {
		rep := f.engine.Report()
		v := rep.Final
		fmt.Fprintf(os.Stderr, "health: final verdict %s (%d components, %d incidents, alpha=%.4f over %d rounds)\n",
			v.Overall, len(v.Components), len(rep.Incidents), rep.AlphaFinal, rep.RoundsDecided)
	}
	if f.rt == nil {
		return nil
	}
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if f.spansFile != nil {
		sink := f.rt.Spans()
		err := sink.Flush()
		if cerr := f.spansFile.Close(); err == nil {
			err = cerr
		}
		f.spansFile = nil
		if err != nil {
			fail(fmt.Errorf("obs: span export: %w", err))
		} else {
			fmt.Fprintf(os.Stderr, "obs: wrote %d spans to %s\n", sink.Published(), f.SpansPath)
		}
	}
	sum := obs.Summary{Metrics: f.rt.Metrics().Snapshot(), Extra: extra}
	if err := obs.WriteJSONFile(f.SummaryPath, sum); err != nil {
		fail(fmt.Errorf("obs: telemetry summary: %w", err))
	} else {
		fmt.Fprintf(os.Stderr, "obs: wrote telemetry summary to %s\n", f.SummaryPath)
	}
	if f.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := f.Shutdown(ctx); err != nil {
			fail(fmt.Errorf("obs: metrics shutdown: %w", err))
		}
	}
	return firstErr
}

// ListenAddr returns the metrics endpoint's bound address (useful when
// MetricsAddr requested an ephemeral port), or "" when no endpoint is up.
func (f *Flags) ListenAddr() string {
	if f.ln == nil {
		return ""
	}
	return f.ln.Addr().String()
}

// Shutdown gracefully stops the metrics HTTP server: the listener closes
// immediately (so the port is released for reuse) and in-flight scrapes get
// until ctx's deadline to complete, after which the server is forced closed.
// Safe to call when no endpoint is running, and idempotent.
func (f *Flags) Shutdown(ctx context.Context) error {
	if f.srv == nil {
		return nil
	}
	// Close the listener directly: Serve may not have registered it with the
	// server yet (it runs on its own goroutine), and the port must be free
	// the moment Shutdown returns.
	_ = f.ln.Close()
	err := f.srv.Shutdown(ctx)
	if errors.Is(err, net.ErrClosed) {
		// Serve had registered the listener, so Shutdown closed it a second
		// time; that is the close above, not a failed shutdown.
		err = nil
	}
	if err != nil {
		// The deadline expired with responses still in flight; Close tears
		// the connections down so the process can exit.
		_ = f.srv.Close()
	}
	f.srv = nil
	f.ln = nil
	return err
}
