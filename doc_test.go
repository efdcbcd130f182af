package mvml_test

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// EXPERIMENTS.md is the printout of `mvml tables -all -quick` and `mvml drive
// -all`, whose every step cmd/mvml pins as a golden. The tests below hold the
// document to that: a number in an "Ours" cell is one a golden prints, a
// verdict names the test that asserts it, and a cited benchmark row is one
// mvbench writes.

// paperSections maps an EXPERIMENTS.md section (its heading up to " — ") to
// the goldens that print its "Ours" numbers. A table row whose first cell
// opens with a sweep letter, "(a)" … "(f)", is checked against that sweep's
// golden alone.
var paperSections = map[string][]string{
	"Table II":                            {"tables_table2_quick"},
	"Table III":                           {"tables_table3"},
	"Table V":                             {"tables_table5"},
	"Fig. 4":                              {"tables_figa", "tables_figb", "tables_figc", "tables_figd", "tables_fige", "tables_figf"},
	"Table VI":                            {"drive_table6"},
	"Table VII":                           {"drive_table7"},
	"Table VIII":                          {"drive_table8"},
	"Ablations":                           {"drive_ablation_voting", "drive_ablation_selection", "drive_ablation_clocks"},
	"Extension: N versions":               {"tables_nversion"},
	"Extension: mission-time reliability": {"dspn_erlang_transient"},
}

// numberRE matches the tokens an "Ours" cell and a golden are compared by:
// integers, decimals and run fractions such as 26/40.
var numberRE = regexp.MustCompile(`\d+(?:[./]\d+)?`)

// testNameRE matches a test named in an "Asserted by" cell.
var testNameRE = regexp.MustCompile(`\bTest[A-Za-z0-9_]+`)

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// sections splits a markdown document into its "## " sections by title.
func sections(doc string) map[string]string {
	out := map[string]string{}
	var title string
	for _, line := range strings.SplitAfter(doc, "\n") {
		if strings.HasPrefix(line, "## ") {
			title = strings.TrimSpace(strings.TrimPrefix(line, "## "))
			title, _, _ = strings.Cut(title, " — ")
			continue
		}
		out[title] += line
	}
	return out
}

// tables returns the markdown tables of a section as rows of trimmed cells,
// the header row first and the |---| separator dropped.
func tables(section string) [][][]string {
	var out [][][]string
	var cur [][]string
	for _, line := range strings.Split(section, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			if cur != nil {
				out, cur = append(out, cur), nil
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if strings.HasPrefix(cells[0], "---") {
			continue
		}
		cur = append(cur, cells)
	}
	if cur != nil {
		out = append(out, cur)
	}
	return out
}

// goldenNumbers returns the number tokens the named goldens print.
func goldenNumbers(t *testing.T, names []string) map[string]bool {
	t.Helper()
	set := map[string]bool{}
	for _, name := range names {
		for _, tok := range numberRE.FindAllString(readFile(t, filepath.Join("cmd", "mvml", "testdata", name+".golden")), -1) {
			set[tok] = true
		}
	}
	return set
}

// testNames returns every Test and Fuzz function declared in a *_test.go
// file under dir, subdirectories included.
func testNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)[A-Za-z0-9_]+)\(`)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(readFile(t, path), -1) {
			names[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestExperimentsOursCellsComeFromGoldens: every number in an "Ours" column
// of a paper section is one its golden prints, and every test an "Asserted
// by" column names exists.
func TestExperimentsOursCellsComeFromGoldens(t *testing.T) {
	doc := sections(readFile(t, "EXPERIMENTS.md"))
	tests := testNames(t, filepath.Join("internal", "experiments"))
	for title, goldens := range paperSections {
		section, ok := doc[title]
		if !ok {
			t.Errorf("EXPERIMENTS.md has no %q section", title)
			continue
		}
		all := goldenNumbers(t, goldens)
		checked := 0
		for _, table := range tables(section) {
			header := table[0]
			for _, row := range table[1:] {
				want := all
				if len(row[0]) > 2 && row[0][0] == '(' && row[0][2] == ')' {
					want = goldenNumbers(t, []string{"tables_fig" + row[0][1:2]})
				}
				for i, cell := range row {
					if i >= len(header) {
						break
					}
					switch {
					case strings.HasPrefix(header[i], "Ours"):
						checked++
						for _, tok := range numberRE.FindAllString(cell, -1) {
							if !want[tok] {
								t.Errorf("%s, row %q: %q in %q is not printed by %v", title, row[0], tok, cell, goldens)
							}
						}
					case header[i] == "Asserted by":
						names := testNameRE.FindAllString(cell, -1)
						if len(names) == 0 {
							t.Errorf("%s, row %q: no test named in %q", title, row[0], cell)
						}
						for _, name := range names {
							if !tests[name] {
								t.Errorf("%s, row %q: %s is not a test in internal/experiments", title, row[0], name)
							}
						}
					}
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no \"Ours\" cell to check", title)
		}
	}
}

// inlineCode matches a markdown code span.
var inlineCode = regexp.MustCompile("`([^`\n]+)`")

// rowName matches what a benchmark row name looks like: a lower-case
// namespace, a dot and lower-case segments (`serve.batch_ms_p50`).
var rowName = regexp.MustCompile(`^([a-z][a-z0-9]*)\.[a-z0-9_.\-]+$`)

// TestDocsCiteOnlyBaselineRows: every `namespace.row` the docs cite, in a
// namespace mvbench reports, is a row of the committed baseline.
func TestDocsCiteOnlyBaselineRows(t *testing.T) {
	rows := map[string]bool{}
	namespaces := map[string]bool{}
	files, err := filepath.Glob(filepath.Join("cmd", "mvbench", "baseline", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed mvbench baseline (%v)", err)
	}
	for _, f := range files {
		var run struct {
			Workloads []struct {
				EndToEnd map[string]json.RawMessage `json:"end_to_end"`
				PerLayer map[string]json.RawMessage `json:"per_layer"`
			} `json:"workloads"`
		}
		if err := json.Unmarshal([]byte(readFile(t, f)), &run); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, w := range run.Workloads {
			for _, m := range []map[string]json.RawMessage{w.EndToEnd, w.PerLayer} {
				for name := range m {
					rows[name] = true
					if ns, _, ok := strings.Cut(name, "."); ok {
						namespaces[ns] = true
					}
				}
			}
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		fenced := false
		for n, line := range strings.Split(readFile(t, doc), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range inlineCode.FindAllStringSubmatch(line, -1) {
				if sub := rowName.FindStringSubmatch(m[1]); sub != nil && namespaces[sub[1]] && !rows[m[1]] {
					t.Errorf("%s:%d cites `%s`, which no committed mvbench baseline run reports", doc, n+1, m[1])
				}
			}
		}
	}
}

// citedTest matches a code span that is exactly a test or fuzz target name.
var citedTest = regexp.MustCompile("`((?:Test|Fuzz)[A-Za-z0-9_]*)`")

// TestDocsCiteOnlyExistingTests: every `TestX` or `FuzzX` the docs cite is
// declared in some *_test.go of the module.
func TestDocsCiteOnlyExistingTests(t *testing.T) {
	tests := testNames(t, ".")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		for n, line := range strings.Split(readFile(t, doc), "\n") {
			for _, m := range citedTest.FindAllStringSubmatch(line, -1) {
				if !tests[m[1]] {
					t.Errorf("%s:%d cites `%s`, which no *_test.go declares", doc, n+1, m[1])
				}
			}
		}
	}
}
