package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"mvml/internal/cli"
	"mvml/internal/scenario"
)

// falsifyCommands is the adversarial scenario falsifier: search looks
// through the driving-scenario space for safety violations (collisions,
// near-collisions, undetected obstacles) and shrinks each find to a
// locally-minimal counterexample; replay and show work on the regression
// corpus that `go test ./internal/scenario` replays.
var falsifyCommands = map[string]cli.Command{
	"search": falsifySearch,
	"replay": falsifyReplay,
	"show":   falsifyShow,
}

func falsifySearch(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("mvml falsify search", flag.ContinueOnError)
	seed := fs.Uint64("seed", 7, "search root seed")
	chains := fs.Int("chains", 24, "independent hill-climbing chains")
	steps := fs.Int("steps", 60, "evaluations per chain")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS; never changes results)")
	corpusDir := fs.String("corpus", "", "corpus directory for -write / -rediscover")
	write := fs.Bool("write", false, "bank minimized counterexamples into -corpus")
	rediscover := fs.Bool("rediscover", false, "require >=1 found counterexample to already be in -corpus")
	minViolations := fs.Int("min-violations", 0, "fail unless at least this many distinct counterexamples were found")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	if (*write || *rediscover) && *corpusDir == "" {
		return cli.Usagef("-write/-rediscover need -corpus")
	}

	rep, err := scenario.Search(scenario.Config{
		Chains: *chains, Steps: *steps, Workers: *workers, Seed: *seed, Minimize: true,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "explored %d scenarios across %d chains (seed %d): %d violations, %d distinct counterexamples\n",
		rep.Explored, *chains, *seed, rep.Violations, len(rep.Counterexamples))
	fmt.Fprintln(w, "min-TTC distribution over explored scenarios:")
	for _, b := range rep.TTCHistogram {
		fmt.Fprintf(w, "  [%5.1f, %5.1f)s %5d\n", b.Lo, b.Hi, b.Count)
	}
	for _, ce := range rep.Counterexamples {
		fmt.Fprintf(w, "  %s  chain=%-2d step=%-3d %s\n",
			scenario.Fingerprint(ce.Scenario), ce.Chain, ce.Step, scenario.DescribeMetrics(ce.Metrics))
	}

	if len(rep.Counterexamples) < *minViolations {
		return fmt.Errorf("found %d distinct counterexamples, need %d", len(rep.Counterexamples), *minViolations)
	}
	if *rediscover {
		entries, _, err := scenario.LoadCorpus(*corpusDir)
		if err != nil {
			return err
		}
		known := scenario.CorpusFingerprints(entries)
		hits := 0
		for _, ce := range rep.Counterexamples {
			if known[scenario.Fingerprint(ce.Scenario)] {
				hits++
			}
		}
		fmt.Fprintf(w, "rediscovered %d/%d corpus entries\n", hits, len(entries))
		if hits == 0 {
			return fmt.Errorf("search rediscovered no corpus entry — determinism or search regression")
		}
	}
	if *write {
		for _, ce := range rep.Counterexamples {
			path, err := scenario.WriteEntry(*corpusDir, scenario.Entry{
				Scenario: ce.Scenario,
				Metrics:  ce.Metrics,
				Note: fmt.Sprintf("mvml falsify search -seed %d -chains %d -steps %d (chain %d, step %d)",
					*seed, *chains, *steps, ce.Chain, ce.Step),
			})
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "wrote", path)
		}
		fmt.Fprintf(w, "banked %d counterexamples in %s\n", len(rep.Counterexamples), *corpusDir)
	}
	return nil
}

// falsifyReplay re-evaluates every corpus entry and reports divergence from
// its stored metrics; any mismatch or lost violation fails the run.
func falsifyReplay(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("mvml falsify replay", flag.ContinueOnError)
	corpusDir := fs.String("corpus", "", "corpus directory")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	if *corpusDir == "" {
		return cli.Usagef("replay needs -corpus")
	}
	entries, names, err := scenario.LoadCorpus(*corpusDir)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("no corpus entries under %s", *corpusDir)
	}
	bad := 0
	for i, e := range entries {
		got, err := scenario.Evaluate(e.Scenario)
		switch {
		case err != nil:
			fmt.Fprintf(w, "FAIL %s: %v\n", names[i], err)
			bad++
		case got != e.Metrics:
			fmt.Fprintf(w, "FAIL %s: metrics diverged\n  stored: %s\n  got:    %s\n",
				names[i], scenario.DescribeMetrics(e.Metrics), scenario.DescribeMetrics(got))
			bad++
		case !got.Violation:
			fmt.Fprintf(w, "FAIL %s: no longer a violation (%s)\n", names[i], scenario.DescribeMetrics(got))
			bad++
		default:
			fmt.Fprintf(w, "ok   %s: %s\n", names[i], scenario.DescribeMetrics(got))
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d/%d corpus entries failed replay", bad, len(entries))
	}
	fmt.Fprintf(w, "replayed %d counterexamples, all reproduced\n", len(entries))
	return nil
}

// falsifyShow pretty-prints one corpus entry with its re-evaluated metrics.
func falsifyShow(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("mvml falsify show", flag.ContinueOnError)
	in := fs.String("in", "", "corpus entry file")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	if *in == "" {
		return cli.Usagef("show needs -in")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	e, err := scenario.DecodeEntry(data)
	if err != nil {
		return err
	}
	got, err := scenario.Evaluate(e.Scenario)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Fingerprint string           `json:"fingerprint"`
		Entry       scenario.Entry   `json:"entry"`
		Reevaluated scenario.Metrics `json:"reevaluated"`
		Reproduced  bool             `json:"reproduced"`
	}{scenario.Fingerprint(e.Scenario), e, got, got == e.Metrics})
}
