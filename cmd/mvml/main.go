// Command mvml regenerates the paper's evaluation: `mvml tables` the
// reliability side (Tables II–V, Fig. 4, the extension studies), `mvml drive`
// the driving case study (Tables VI–VIII, ablations, Fig. 5 maps), `mvml dspn`
// the raw DSPN solutions, `mvml falsify` the scenario falsifier and its
// corpus, `mvml signs` the synthetic dataset as a PNG. Run `mvml -h` for the
// usage.
//
// Exit codes: 0 ok (and -h), 1 a failed run, 2 a usage error.
package main

import (
	"fmt"
	"image"
	"image/png"
	"io"
	"os"

	"mvml/internal/cli"
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

var commands = map[string]cli.Command{
	"tables": cmdTables,
	"drive":  cmdDrive,
	"dspn":   cmdDSPN,
	"falsify": func(args []string, stdout, stderr io.Writer) error {
		return cli.Dispatch(usageText, falsifyCommands, args, stdout, stderr)
	},
	"signs": cmdSigns,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches one invocation and returns its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	return cli.Run("mvml", usageText, commands, args, stdout, stderr)
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
