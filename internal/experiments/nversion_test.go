package experiments

import (
	"strings"
	"testing"
)

func TestNVersionStudyValidation(t *testing.T) {
	bad := DefaultNVersionStudyConfig()
	bad.MaxVersions = 0
	if _, err := RunNVersionStudy(bad); err == nil {
		t.Fatal("expected error for MaxVersions 0")
	}
	bad = DefaultNVersionStudyConfig()
	bad.Requests = 0
	if _, err := RunNVersionStudy(bad); err == nil {
		t.Fatal("expected error for zero requests")
	}
}

func TestNVersionStudyShape(t *testing.T) {
	cfg := DefaultNVersionStudyConfig()
	res, err := RunNVersionStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1 row for n=1 plus 3 voters x 4 sizes.
	if len(res.Rows) != 1+3*(cfg.MaxVersions-1) {
		t.Fatalf("%d rows", len(res.Rows))
	}
	byKey := map[string]NVersionRow{}
	for _, row := range res.Rows {
		byKey[row.Voter+string(rune('0'+row.Versions))] = row

		// Rejuvenation improves correctness in every row, and never hurts
		// the error-free metric by much (Monte-Carlo noise aside).
		if row.ReliabilityWith <= row.ReliabilityWithout {
			t.Errorf("%d-version %s: rejuvenation did not improve correctness (%.4f vs %.4f)",
				row.Versions, row.Voter, row.ReliabilityWith, row.ReliabilityWithout)
		}
		if row.ErrorFreeWith < row.ErrorFreeWithout-0.02 {
			t.Errorf("%d-version %s: rejuvenation degraded error-freeness (%.4f vs %.4f)",
				row.Versions, row.Voter, row.ErrorFreeWith, row.ErrorFreeWithout)
		}
		// Plurality never skips on disagreement; unanimity skips most. A
		// round with no functional version is skipped whatever the voter,
		// which rejuvenation makes possible (two versions down at once).
		if row.Voter == "plurality" && (row.DivergenceWith != 0 || row.DivergenceWithout != 0 || row.SkipWithout != 0) {
			t.Errorf("plurality skipped: %+v", row)
		}
	}
	// Table V's finding generalises: under the paper's error-free metric
	// the 2-version majority (with its safe skip) at least matches the
	// 3-version majority.
	two := byKey["majority2"]
	three := byKey["majority3"]
	if two.ErrorFreeWith < three.ErrorFreeWith-0.005 {
		t.Errorf("2-version error-freeness %.4f should rival 3-version %.4f",
			two.ErrorFreeWith, three.ErrorFreeWith)
	}
	// Unanimity trades availability for error-freeness: it must have the
	// highest skip ratio of the 3-version voters and at least as good an
	// error-free rate as majority.
	u3 := byKey["unanimous3"]
	if u3.SkipWith <= three.SkipWith {
		t.Error("unanimity should skip more than majority")
	}
	if u3.ErrorFreeWith < three.ErrorFreeWith-0.005 {
		t.Error("unanimity should be at least as error-free as majority")
	}
	// Five-version majority should beat three-version majority on plain
	// correctness (more redundancy).
	five := byKey["majority5"]
	if five.ReliabilityWith < three.ReliabilityWith-0.015 { // Monte-Carlo margin
		t.Errorf("5-version correctness %.4f should be >= 3-version %.4f",
			five.ReliabilityWith, three.ReliabilityWith)
	}
	// Plurality is the best pure-correctness voter at every N, and
	// unanimity's skip ratio grows with N.
	for n := 2; n <= cfg.MaxVersions; n++ {
		v := string(rune('0' + n))
		if p, m := byKey["plurality"+v], byKey["majority"+v]; p.ReliabilityWith < m.ReliabilityWith {
			t.Errorf("%d versions: plurality correctness %.4f below majority %.4f", n, p.ReliabilityWith, m.ReliabilityWith)
		}
		if n > 2 && byKey["unanimous"+v].SkipWith <= byKey["unanimous"+string(rune('0'+n-1))].SkipWith {
			t.Errorf("%d versions: unanimity skips %.4f, no more than at %d", n, byKey["unanimous"+v].SkipWith, n-1)
		}
	}
	if !strings.Contains(res.Render(), "unanimous") {
		t.Fatal("render broken")
	}
}
