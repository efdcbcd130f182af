package main

import (
	"bytes"
	"crypto/sha256"
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

// Every golden that prints a paper number runs at the paper's budget: the
// flags a reader of EXPERIMENTS.md would type, with every default in place.
var goldenCases = []goldenCase{
	{"tables_table3", 0, []string{"tables", "-table", "3"}},
	{"tables_table4", 0, []string{"tables", "-table", "4"}},
	{"tables_table5", 0, []string{"tables", "-table", "5"}},
	{"tables_figa", 0, []string{"tables", "-fig", "a"}},
	{"tables_figb", 0, []string{"tables", "-fig", "b"}},
	{"tables_figc", 0, []string{"tables", "-fig", "c"}},
	{"tables_figd", 0, []string{"tables", "-fig", "d"}},
	{"tables_fige", 0, []string{"tables", "-fig", "e"}},
	{"tables_figf", 0, []string{"tables", "-fig", "f"}},
	{"tables_nversion", 0, []string{"tables", "-nversion"}},
	{"drive_table6", 0, []string{"drive", "-table", "6"}},
	{"drive_table7", 0, []string{"drive", "-table", "7"}},
	{"drive_table8", 0, []string{"drive", "-table", "8"}},
	{"drive_ablation_voting", 0, []string{"drive", "-ablation", "voting"}},
	{"drive_ablation_selection", 0, []string{"drive", "-ablation", "selection"}},
	{"drive_ablation_clocks", 0, []string{"drive", "-ablation", "clocks"}},
	{"drive_map", 0, []string{"drive", "-map", "{png}"}},
	{"dspn_erlang_transient", 0, []string{"dspn", "-n", "3", "-erlang", "20", "-transient"}},
	{"dspn_n2_interval", 0, []string{"dspn", "-n", "2", "-interval", "120"}},
	{"falsify_search", 0, []string{"falsify", "search", "-seed", "7", "-chains", "2", "-steps", "4"}},
	// A failed gate still prints the whole report before exiting 1.
	{"falsify_search", 1, []string{"falsify", "search", "-seed", "7", "-chains", "2", "-steps", "4", "-min-violations", "99"}},
	{"falsify_replay", 0, []string{"falsify", "replay", "-corpus", corpus}},
	{"falsify_show", 0, []string{"falsify", "show", "-in", filepath.Join(corpus, "ce-5f9b681d5327.json")}},
	{"signs", 0, []string{"signs", "-o", "{png}", "-per-class", "3", "-first", "10", "-last", "19"}},
}

// tablesAllSteps and driveAllSteps are the goldens that `tables -all` (after
// Table II) and `drive -all` print, in order: -all is the single steps in
// sequence, nothing more.
var (
	tablesAllSteps = []string{"tables_table3", "tables_table4", "tables_table5",
		"tables_figa", "tables_figb", "tables_figc", "tables_figd", "tables_fige", "tables_figf",
		"tables_nversion"}
	driveAllSteps = []string{"drive_table6", "drive_table7", "drive_table8",
		"drive_ablation_voting", "drive_ablation_selection", "drive_ablation_clocks"}
)

// tableIIGolden is the quick Table II, the first section `tables -all -quick`
// prints. It trains three models (~30 s), so TestTablesAllUsesPaperParams,
// which has to train them anyway, is the one test that checks it.
const tableIIGolden = "tables_table2_quick"

// readGoldens concatenates the named goldens.
func readGoldens(t *testing.T, names ...string) string {
	t.Helper()
	var b strings.Builder
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
	}
	return b.String()
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

// TestTablesAllUsesPaperParams: `tables -all -quick` is the one command
// behind EXPERIMENTS.md's reliability side. It exits 0 and prints the quick
// Table II followed by exactly the single-step goldens, so every table after
// Table II runs on the paper's parameters, as it does alone (Table II's
// quick fit feeds nothing downstream).
func TestTablesAllUsesPaperParams(t *testing.T) {
	if testing.Short() {
		t.Skip("trains Table II's three models and runs every sweep (~40 s)")
	}
	code, stdout, stderr := runCLI("tables", "-all", "-quick")
	if code != 0 {
		t.Fatalf("mvml tables -all -quick exited %d: %s", code, stderr)
	}
	steps := readGoldens(t, tablesAllSteps...)
	if *update && strings.HasSuffix(stdout, steps) {
		golden := filepath.Join("testdata", tableIIGolden+".golden")
		if err := os.WriteFile(golden, []byte(strings.TrimSuffix(stdout, steps)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want := readGoldens(t, tableIIGolden) + steps; stdout != want {
		t.Errorf("mvml tables -all -quick stdout is not %s.golden followed by %v:\n%s", tableIIGolden, tablesAllSteps, stdout)
	}
}

// TestDriveAll: `drive -all`, the one command behind EXPERIMENTS.md's case
// study, prints exactly the single-step goldens.
func TestDriveAll(t *testing.T) {
	code, stdout, stderr := runCLI("drive", "-all")
	if code != 0 {
		t.Fatalf("mvml drive -all exited %d: %s", code, stderr)
	}
	if want := readGoldens(t, driveAllSteps...); stdout != want {
		t.Errorf("mvml drive -all stdout is not %v concatenated:\n%s", driveAllSteps, stdout)
	}
}

// TestDriveWorkerCountInvariant: the case-study fan-out prints Table VIII's
// golden at one worker and at four.
func TestDriveWorkerCountInvariant(t *testing.T) {
	want := readGoldens(t, "drive_table8")
	for _, workers := range []string{"1", "4"} {
		code, stdout, stderr := runCLI("drive", "-table", "8", "-workers", workers)
		if code != 0 || stdout != want {
			t.Fatalf("-workers %s: exit %d (%s), stdout\n%s\nwant drive_table8.golden\n%s", workers, code, stderr, stdout, want)
		}
	}
}

// TestUsage: a bad invocation exits 2 with the usage on stderr and nothing on
// stdout; -h exits 0.
func TestUsage(t *testing.T) {
	bad := [][]string{
		{},
		{"frobnicate"},
		{"tables"},
		{"tables", "-no-such-flag"},
		{"tables", "-table", "7"},
		{"tables", "-fig", "4a"},
		{"tables", "-horizon", "20000"},
		{"tables", "-table", "5", "-seed", "1"},
		{"drive"},
		{"drive", "-table", "9"},
		{"drive", "-ablation", "none"},
		{"drive", "-table", "7", "-runs", "0"},
		{"drive", "-table", "7", "-runs", "-1"},
		{"dspn", "-n"},
		{"dspn", "-horizon", "20000"},
		{"dspn", "-seed", "1"},
		{"dspn", "-transient", "-workers", "2"},
		{"dspn", "-interval", "-120"},
		{"dspn", "-interval", "NaN"},
		{"dspn", "-interval", "+Inf"},
		{"dspn", "-erlang", "-3"},
		{"falsify"},
		{"falsify", "frobnicate"},
		{"falsify", "search", "-write"},
		{"falsify", "replay"},
		{"falsify", "show"},
		{"signs", "-per-class", "0"},
		{"signs", "-first", "5", "-last", "4"},
	}
	// No subcommand takes telemetry flags: telemetry watches the serving
	// binaries only.
	for _, valid := range [][]string{
		{"tables", "-table", "3"},
		{"drive", "-table", "7", "-runs", "1"},
		{"dspn", "-n", "2"},
		{"signs", "-per-class", "1", "-last", "0", "-o", filepath.Join(t.TempDir(), "s.png")},
	} {
		for _, tf := range [][]string{
			{"-telemetry-out", "x"}, {"-spans-out", "x"}, {"-metrics-addr", "127.0.0.1:0"}, {"-pprof"}, {"-health"},
		} {
			bad = append(bad, append(append([]string(nil), valid...), tf...))
		}
	}
	for _, args := range bad {
		code, stdout, stderr := runCLI(args...)
		if code != 2 || stdout != "" || !strings.Contains(strings.ToLower(stderr), "usage") {
			t.Errorf("mvml %v: exit %d, stdout %q, stderr %q; want 2 with usage on stderr", args, code, stdout, stderr)
		}
	}
	// -interval 0 is the Table IV default.
	if code, stdout, _ := runCLI("dspn", "-n", "1", "-interval", "0"); code != 0 || !strings.Contains(stdout, "1/gamma = 300s") {
		t.Errorf("mvml dspn -interval 0: exit %d, stdout %q; want the Table IV default 1/gamma = 300s", code, stdout)
	}
	for _, args := range [][]string{{"-h"}, {"help"}, {"tables", "-h"}, {"dspn", "-h"}, {"falsify", "-h"}, {"falsify", "search", "-h"}} {
		code, stdout, stderr := runCLI(args...)
		if code != 0 || stdout != "" || stderr == "" {
			t.Errorf("mvml %v: exit %d, stdout %q; want 0 with help on stderr", args, code, stdout)
		}
		// One budget: the paper's. No subcommand takes a horizon; the
		// reliability side is exact, so tables and dspn take no seed and
		// dspn no worker count.
		banned := []string{"-horizon"}
		switch args[0] {
		case "tables":
			banned = append(banned, "-seed")
		case "dspn":
			banned = append(banned, "-seed", "-workers")
		}
		for _, flag := range banned {
			if strings.Contains(stderr, flag) {
				t.Errorf("mvml %v lists %s:\n%s", args, flag, stderr)
			}
		}
	}
}
