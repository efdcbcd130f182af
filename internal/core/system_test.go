package core

import (
	"testing"

	"mvml/internal/xrand"
)

// constVersion always answers the same value and tracks lifecycle calls.
type constVersion struct {
	name                  string
	value                 int
	compromises, restores int
}

func (v *constVersion) Name() string           { return v.name }
func (v *constVersion) Infer(int) (int, error) { return v.value, nil }
func (v *constVersion) Compromise() error      { v.compromises++; return nil }
func (v *constVersion) Restore() error         { v.restores++; return nil }

func testVersions(n int) []Version[int, int] {
	out := make([]Version[int, int], n)
	for i := range out {
		out[i] = &constVersion{name: string(rune('a' + i)), value: 1}
	}
	return out
}

func noFaultConfig() Config {
	return Config{DisableFaults: true}
}

func TestNewSystemValidation(t *testing.T) {
	voter := NewEqualityVoter[int]()
	rng := xrand.New(1)
	if _, err := NewSystem[int, int](nil, voter, noFaultConfig(), rng); err == nil {
		t.Fatal("expected error for no versions")
	}
	if _, err := NewSystem[int, int](testVersions(3), nil, noFaultConfig(), rng); err == nil {
		t.Fatal("expected error for nil voter")
	}
	if _, err := NewSystem[int, int](testVersions(3), voter, noFaultConfig(), nil); err == nil {
		t.Fatal("expected error for nil rng")
	}
	bad := Config{MeanTimeToCompromise: -1}
	if _, err := NewSystem[int, int](testVersions(3), voter, bad, rng); err == nil {
		t.Fatal("expected error for bad config")
	}
	dup := []Version[int, int]{
		&constVersion{name: "same"},
		&constVersion{name: "same"},
	}
	if _, err := NewSystem[int, int](dup, voter, noFaultConfig(), rng); err == nil {
		t.Fatal("expected error for duplicate names")
	}
}

func TestConfigValidate(t *testing.T) {
	good := CaseStudyConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("case-study config invalid: %v", err)
	}
	cases := []Config{
		{MeanTimeToCompromise: 0, MeanTimeToFailure: 1, MeanReactiveRejuvenation: 1},
		{MeanTimeToCompromise: 1, MeanTimeToFailure: 1, MeanReactiveRejuvenation: 0},
		{MeanTimeToCompromise: 1, MeanTimeToFailure: 1, MeanReactiveRejuvenation: 1, RejuvenationInterval: -2},
		{MeanTimeToCompromise: 1, MeanTimeToFailure: 1, MeanReactiveRejuvenation: 1, RejuvenationInterval: 3},
		{DisableFaults: true, RejuvenationInterval: 3}, // proactive without duration
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestInferAllHealthy(t *testing.T) {
	sys, err := NewSystem[int, int](testVersions(3), NewEqualityVoter[int](), noFaultConfig(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	d, proposals, err := sys.Infer(1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Skipped || d.Value != 1 || d.Agreeing != 3 {
		t.Fatalf("decision %+v", d)
	}
	if len(proposals) != 3 {
		t.Fatalf("%d proposals, want 3", len(proposals))
	}
	if got := sys.Stats(); got.Decisions != 1 || got.Inferences != 1 || got.Skips != 0 {
		t.Fatalf("stats %+v", got)
	}
}

func TestAdvanceBackwardsRejected(t *testing.T) {
	sys, err := NewSystem[int, int](testVersions(1), NewEqualityVoter[int](), noFaultConfig(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Advance(5); err != nil {
		t.Fatal(err)
	}
	if err := sys.Advance(4); err == nil {
		t.Fatal("expected error advancing backwards")
	}
}

func TestCompromiseAndCrashLifecycle(t *testing.T) {
	// Fast fault clock, no rejuvenation interval: modules march
	// H -> C -> N and reactive repair brings them back.
	cfg := Config{
		MeanTimeToCompromise:     1,
		MeanTimeToFailure:        1,
		MeanReactiveRejuvenation: 0.1,
	}
	vs := testVersions(3)
	sys, err := NewSystem[int, int](vs, NewEqualityVoter[int](), cfg, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Advance(200); err != nil {
		t.Fatal(err)
	}
	if st := sys.Stats(); st.Compromises == 0 || st.Crashes == 0 || st.ReactiveRejuvenations == 0 {
		t.Fatalf("system never cycled: %+v", st)
	}
	// Every version was compromised and restored by a completed rejuvenation.
	for _, v := range vs {
		cv, ok := v.(*constVersion)
		if !ok {
			t.Fatal("unexpected version type")
		}
		if cv.compromises == 0 || cv.restores == 0 {
			t.Fatalf("version %s hooks not called: %d compromises, %d restores",
				cv.name, cv.compromises, cv.restores)
		}
	}
}

func TestProactiveRejuvenationRestoresCompromised(t *testing.T) {
	// Compromise happens fast, crash is essentially never, so only
	// proactive rejuvenation can restore modules.
	cfg := Config{
		MeanTimeToCompromise:      1,
		MeanTimeToFailure:         1e12,
		MeanReactiveRejuvenation:  0.1,
		MeanProactiveRejuvenation: 0.1,
		RejuvenationInterval:      2,
		Selection:                 SelectByCount,
	}
	sys, err := NewSystem[int, int](testVersions(3), NewEqualityVoter[int](), cfg, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Advance(500); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.Crashes != 0 {
		t.Fatalf("%d crashes despite huge MTTF", st.Crashes)
	}
	totalRejuv := st.ProactiveRejuvenations
	if totalRejuv == 0 {
		t.Fatal("proactive rejuvenation never completed")
	}
	// Roughly one rejuvenation per interval is possible; at least a
	// meaningful fraction should have happened over 250 intervals.
	if totalRejuv < 100 {
		t.Fatalf("only %d rejuvenations in 500s with a 2s interval", totalRejuv)
	}
}

func TestProactiveDisabledWhenIntervalZero(t *testing.T) {
	cfg := Config{
		MeanTimeToCompromise:     1,
		MeanTimeToFailure:        1e12,
		MeanReactiveRejuvenation: 0.1,
	}
	sys, err := NewSystem[int, int](testVersions(3), NewEqualityVoter[int](), cfg, xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Advance(300); err != nil {
		t.Fatal(err)
	}
	// Without crashes and without proactive rejuvenation, every module
	// ends compromised and no rejuvenations happen.
	st := sys.State()
	if st.Compromised != 3 {
		t.Fatalf("state %v, want all compromised", st)
	}
	if s := sys.Stats(); s.ReactiveRejuvenations+s.ProactiveRejuvenations != 0 {
		t.Fatal("rejuvenation happened with interval 0")
	}
}

func TestSkipAccounting(t *testing.T) {
	// Two versions that disagree force R.2 skips.
	vs := []Version[int, int]{
		&constVersion{name: "a", value: 1},
		&constVersion{name: "b", value: 2},
	}
	sys, err := NewSystem[int, int](vs, NewEqualityVoter[int](), noFaultConfig(), xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := sys.Infer(float64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.Stats()
	if st.Skips != 10 || st.SkipRatio() != 1 {
		t.Fatalf("stats %+v, want all skips", st)
	}
}

func TestModuleStateString(t *testing.T) {
	if Healthy.String() != "H" || Compromised.String() != "C" ||
		NonFunctional.String() != "N" || Rejuvenating.String() != "R" {
		t.Fatal("ModuleState.String broken")
	}
	if Healthy.Functional() != true || NonFunctional.Functional() != false ||
		Rejuvenating.Functional() != false || Compromised.Functional() != true {
		t.Fatal("ModuleState.Functional broken")
	}
}

func TestFuncVersion(t *testing.T) {
	v := &FuncVersion[int, int]{
		VersionName: "fn",
		InferFn:     func(in int) (int, error) { return in * 2, nil },
	}
	if v.Name() != "fn" {
		t.Fatal("name")
	}
	out, err := v.Infer(21)
	if err != nil || out != 42 {
		t.Fatalf("infer: %v %v", out, err)
	}
	if err := v.Compromise(); err != nil {
		t.Fatal(err)
	}
	if err := v.Restore(); err != nil {
		t.Fatal(err)
	}
	empty := &FuncVersion[int, int]{VersionName: "empty"}
	if _, err := empty.Infer(1); err == nil {
		t.Fatal("expected error for missing InferFn")
	}
}

// TestDivergencesCountOnlySkipsWithProposals pins the Divergences rule: a
// skipped round with at least one proposal is a divergence, a skipped round
// with none (every module down) is a skip and nothing more.
func TestDivergencesCountOnlySkipsWithProposals(t *testing.T) {
	split := []Version[int, int]{
		&constVersion{name: "a", value: 1},
		&constVersion{name: "b", value: 2},
	}
	sys, err := NewSystem[int, int](split, NewEqualityVoter[int](), noFaultConfig(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := sys.Infer(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := sys.Stats(); !d.Skipped || st.Skips != 1 || st.Divergences != 1 || st.Decisions != 0 {
		t.Fatalf("1v1 split: skipped=%v stats %+v, want one skip that is a divergence", d.Skipped, st)
	}

	// One version, fast faults and no repair: it crashes and stays down.
	cfg := Config{MeanTimeToCompromise: 1, MeanTimeToFailure: 1, DisableReactive: true}
	sys, err = NewSystem[int, int](testVersions(1), NewEqualityVoter[int](), cfg, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Advance(1000); err != nil {
		t.Fatal(err)
	}
	if st := sys.Modules()[0].State(); st != NonFunctional {
		t.Fatalf("module in state %v after 1000 s, want N", st)
	}
	d, props, err := sys.Infer(1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := sys.Stats(); !d.Skipped || len(props) != 0 || st.Skips != 1 || st.Divergences != 0 {
		t.Fatalf("no proposals: skipped=%v proposals=%d stats %+v, want one skip and no divergence",
			d.Skipped, len(props), st)
	}
}

func TestStatsRatios(t *testing.T) {
	var zero Stats
	if zero.SkipRatio() != 0 || zero.DivergenceRatio() != 0 {
		t.Fatal("zero-inference ratios must be 0, not NaN")
	}
	s := Stats{Inferences: 8, Skips: 2, Decisions: 6, Divergences: 1}
	if s.SkipRatio() != 0.25 || s.DivergenceRatio() != 0.125 {
		t.Fatalf("ratios %v %v", s.SkipRatio(), s.DivergenceRatio())
	}
}

// BenchmarkInfer times the Infer hot path of a no-fault three-version system.
func BenchmarkInfer(b *testing.B) {
	sys, err := NewSystem[int, int](testVersions(3), NewEqualityVoter[int](), noFaultConfig(), xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.Infer(float64(i), i); err != nil {
			b.Fatal(err)
		}
	}
}
