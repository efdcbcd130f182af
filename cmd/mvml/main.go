// Command mvml regenerates the paper's evaluation: `mvml tables` the
// reliability side (Tables II–V, Fig. 4, the extension studies), `mvml drive`
// the driving case study (Tables VI–VIII, ablations, Fig. 5 maps), `mvml dspn`
// the raw DSPN solutions, `mvml falsify` the scenario falsifier and its
// corpus, `mvml signs` the synthetic dataset as a PNG. Run `mvml -h` for the
// usage.
//
// Every subcommand but falsify takes the shared telemetry flags
// (internal/telemetry); attaching telemetry never changes a run's output.
// Exit codes: 0 ok (and -h), 1 a failed run (a failed telemetry artifact
// included), 2 a usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"image"
	"image/png"
	"io"
	"os"

	"mvml/internal/obs"
	"mvml/internal/telemetry"
)

const usageText = `usage:
  mvml tables  [flags]   reliability side: Tables II-V, Fig. 4 sweeps, extension studies
  mvml drive   [flags]   driving case study: Tables VI-VIII, ablations, town maps
  mvml dspn    [flags]   solve the Fig. 2/3 DSPN models directly
  mvml falsify search [-seed N] [-chains N] [-steps N] [-workers N]
                      [-corpus DIR] [-write] [-rediscover] [-min-violations N]
  mvml falsify replay -corpus DIR
  mvml falsify show   -in FILE
                         search the scenario space, replay or show the corpus
  mvml signs   [flags]   render the synthetic traffic-sign dataset to a PNG
run "mvml <subcommand> -h" for flags
`

// usageError marks a bad invocation: run prints it with the usage text and
// exits 2 (a failed run exits 1).
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// errFlagParse marks a flag-parse failure the flag package already reported.
var errFlagParse = errors.New("flag parse error")

// command runs one subcommand on its arguments.
type command func(args []string, stdout, stderr io.Writer) error

var commands = map[string]command{
	"tables": cmdTables,
	"drive":  cmdDrive,
	"dspn":   cmdDSPN,
	"falsify": func(args []string, stdout, stderr io.Writer) error {
		return dispatch(falsifyCommands, args, stdout, stderr)
	},
	"signs": cmdSigns,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches one invocation and returns its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	err := dispatch(commands, args, stdout, stderr)
	var bad usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errFlagParse):
		return 2
	case errors.As(err, &bad):
		fmt.Fprintln(stderr, "mvml:", err)
		fmt.Fprint(stderr, usageText)
		return 2
	}
	fmt.Fprintln(stderr, "mvml:", err)
	return 1
}

// dispatch hands args to the subcommand args[0] names in cmds (-h prints the
// usage).
func dispatch(cmds map[string]command, args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return usageError{"missing subcommand"}
	}
	switch args[0] {
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stderr, usageText)
		return flag.ErrHelp
	}
	cmd, ok := cmds[args[0]]
	if !ok {
		return usageError{fmt.Sprintf("unknown subcommand %q", args[0])}
	}
	return cmd(args[1:], stdout, stderr)
}

// parse parses a subcommand's flags (errors and -h go to stderr), reporting a
// failure the flag package printed as errFlagParse.
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errFlagParse
	}
	return err
}

// instrumented runs body on the runtime the telemetry flags ask for (nil when
// none does), with the health engine on its span stream, and finishes the
// telemetry however body ends: a failed Finish fails the run. extra is the
// summary's "extra" field.
func instrumented(tele *telemetry.Flags, extra map[string]any, body func(*obs.Runtime) error) (err error) {
	rt, err := tele.Start()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, tele.Finish(extra)) }()
	tele.AttachEngine()
	return body(rt)
}

// renderer is one experiment's result table.
type renderer interface{ Render() string }

// text is a table that is already rendered.
type text string

func (t text) Render() string { return string(t) }

// step is one experiment a subcommand may run.
type step struct {
	on  bool
	run func() (renderer, error)
}

// printSteps runs the selected steps in order and prints each table,
// stopping at the first failure.
func printSteps(w io.Writer, steps []step) error {
	for _, s := range steps {
		if !s.on {
			continue
		}
		res, err := s.run()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
	}
	return nil
}

// writePNG encodes img to path.
func writePNG(path string, img image.Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := png.Encode(f, img); err != nil {
		f.Close()
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	return f.Close()
}
