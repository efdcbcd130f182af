package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the golden outputs under testdata/")

var corpus = filepath.Join("..", "..", "internal", "scenario", "testdata", "corpus")

// runCLI invokes the tool in-process.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// goldenCase is one pinned invocation. "{png}" in args stands for a PNG path
// in a fresh temporary directory; the recorded output then ends with the
// file's SHA-256 and names the directory $TMP.
type goldenCase struct {
	name string
	code int
	args []string
}

var goldenCases = []goldenCase{
	{"tables_table3", 0, []string{"tables", "-table", "3"}},
	{"tables_table4", 0, []string{"tables", "-table", "4"}},
	{"tables_table5", 0, []string{"tables", "-table", "5", "-horizon", "20000"}},
	{"tables_figa", 0, []string{"tables", "-fig", "a", "-horizon", "20000"}},
	{"drive_table7", 0, []string{"drive", "-table", "7", "-runs", "1", "-seed", "77"}},
	{"drive_table8", 0, []string{"drive", "-table", "8", "-runs", "2", "-workers", "1"}},
	{"drive_map", 0, []string{"drive", "-map", "{png}"}},
	{"dspn_erlang_transient", 0, []string{"dspn", "-n", "3", "-horizon", "20000", "-erlang", "20", "-transient"}},
	{"dspn_n2_interval", 0, []string{"dspn", "-n", "2", "-interval", "120", "-horizon", "20000"}},
	{"falsify_search", 0, []string{"falsify", "search", "-seed", "7", "-chains", "2", "-steps", "4"}},
	// A failed gate still prints the whole report before exiting 1.
	{"falsify_search", 1, []string{"falsify", "search", "-seed", "7", "-chains", "2", "-steps", "4", "-min-violations", "99"}},
	{"falsify_replay", 0, []string{"falsify", "replay", "-corpus", corpus}},
	{"falsify_show", 0, []string{"falsify", "show", "-in", filepath.Join(corpus, "ce-5f9b681d5327.json")}},
	{"signs", 0, []string{"signs", "-o", "{png}", "-per-class", "3", "-first", "10", "-last", "19"}},
}

// invoke runs one case and returns its exit code and recorded output.
func (c goldenCase) invoke(t *testing.T) (int, string, string) {
	t.Helper()
	dir := t.TempDir()
	png := filepath.Join(dir, "out.png")
	args := make([]string, len(c.args))
	for i, a := range c.args {
		args[i] = strings.ReplaceAll(a, "{png}", png)
	}
	code, stdout, stderr := runCLI(args...)
	if strings.Contains(strings.Join(c.args, " "), "{png}") {
		data, err := os.ReadFile(png)
		if err != nil {
			t.Fatal(err)
		}
		stdout = strings.ReplaceAll(stdout, dir, "$TMP") + fmt.Sprintf("sha256(out.png) = %x\n", sha256.Sum256(data))
	}
	return code, stdout, stderr
}

// TestGolden pins every subcommand's exit code and stdout.
func TestGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(fmt.Sprintf("%s_exit%d", c.name, c.code), func(t *testing.T) {
			code, stdout, stderr := c.invoke(t)
			if code != c.code {
				t.Fatalf("mvml %v exited %d, want %d: %s", c.args, code, c.code, stderr)
			}
			golden := filepath.Join("testdata", c.name+".golden")
			if *update && c.code == 0 {
				if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if stdout != string(want) {
				t.Errorf("mvml %v stdout differs from %s (run with -update after an intended change):\n%s", c.args, golden, stdout)
			}
		})
	}
}

// TestTablesAllUsesPaperParams: -all runs every reliability-side step on the
// paper's parameters, so it exits 0 and its Tables III and IV are exactly the
// single-step ones (Table II's quick fit feeds nothing downstream).
func TestTablesAllUsesPaperParams(t *testing.T) {
	if testing.Short() {
		t.Skip("trains Table II's three models and runs every sweep (~35 s)")
	}
	code, stdout, stderr := runCLI("tables", "-all", "-quick")
	if code != 0 {
		t.Fatalf("mvml tables -all -quick exited %d: %s", code, stderr)
	}
	for _, name := range []string{"tables_table3", "tables_table4"} {
		want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(stdout, string(want)) {
			t.Errorf("-all stdout lacks the section in %s.golden:\n%s", name, stdout)
		}
	}
}

// TestDriveWorkerCountInvariant: the case-study fan-out prints the same
// table at one worker and at four.
func TestDriveWorkerCountInvariant(t *testing.T) {
	_, w1, _ := runCLI("drive", "-table", "8", "-runs", "2", "-workers", "1")
	code, w4, stderr := runCLI("drive", "-table", "8", "-runs", "2", "-workers", "4")
	if code != 0 || w4 != w1 {
		t.Fatalf("-workers 4: exit %d (%s), stdout\n%s\nwant the -workers 1 table\n%s", code, stderr, w4, w1)
	}
}

// TestTelemetry: each instrumented subcommand prints the same stdout with
// telemetry on, tags its summary with the command it had as a binary of its
// own, and fails the run (exit 1) when an artifact cannot be written.
func TestTelemetry(t *testing.T) {
	for _, c := range []struct {
		command string
		args    []string
	}{
		{"mvmlbench", []string{"tables", "-table", "3"}},
		{"drivesim", []string{"drive", "-table", "7", "-runs", "1", "-seed", "77"}},
		{"dspn", []string{"dspn", "-n", "2", "-horizon", "2000"}},
		{"signsheet", []string{"signs", "-per-class", "1", "-last", "0"}},
	} {
		t.Run(c.args[0], func(t *testing.T) {
			dir := t.TempDir()
			args := c.args
			if args[0] == "signs" {
				args = append(args, "-o", filepath.Join(dir, "signs.png"))
			}
			_, plain, _ := runCLI(args...)
			summary := filepath.Join(dir, "summary.json")
			code, stdout, stderr := runCLI(append(args, "-telemetry-out", summary)...)
			if code != 0 || stdout != plain {
				t.Fatalf("with -telemetry-out: exit %d (%s), stdout\n%s\nwant\n%s", code, stderr, stdout, plain)
			}
			data, err := os.ReadFile(summary)
			if err != nil {
				t.Fatal(err)
			}
			var sum struct {
				Extra struct{ Command string } `json:"extra"`
			}
			if err := json.Unmarshal(data, &sum); err != nil || sum.Extra.Command != c.command {
				t.Errorf("summary extra.command = %q (%v), want %q", sum.Extra.Command, err, c.command)
			}
			code, _, stderr = runCLI(append(args, "-telemetry-out", dir)...)
			if code != 1 || !strings.Contains(stderr, "is a directory") {
				t.Errorf("-telemetry-out <dir>: exit %d, stderr %q; want 1 naming the failure", code, stderr)
			}
		})
	}
}

// TestUsage: a bad invocation exits 2 with the usage on stderr and nothing on
// stdout; -h exits 0.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"tables"},
		{"tables", "-no-such-flag"},
		{"tables", "-table", "7"},
		{"tables", "-fig", "4a"},
		{"drive"},
		{"drive", "-table", "9"},
		{"drive", "-ablation", "none"},
		{"dspn", "-n"},
		{"falsify"},
		{"falsify", "frobnicate"},
		{"falsify", "search", "-write"},
		{"falsify", "replay"},
		{"falsify", "show"},
		{"signs", "-per-class", "0"},
		{"signs", "-first", "5", "-last", "4"},
	} {
		code, stdout, stderr := runCLI(args...)
		if code != 2 || stdout != "" || !strings.Contains(strings.ToLower(stderr), "usage") {
			t.Errorf("mvml %v: exit %d, stdout %q, stderr %q; want 2 with usage on stderr", args, code, stdout, stderr)
		}
	}
	for _, args := range [][]string{{"-h"}, {"help"}, {"tables", "-h"}, {"falsify", "-h"}, {"falsify", "search", "-h"}} {
		if code, stdout, stderr := runCLI(args...); code != 0 || stdout != "" || stderr == "" {
			t.Errorf("mvml %v: exit %d, stdout %q; want 0 with help on stderr", args, code, stdout)
		}
	}
}
