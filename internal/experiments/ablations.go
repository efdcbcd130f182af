package experiments

import (
	"fmt"

	"mvml/internal/core"
	"mvml/internal/drivesim"
	"mvml/internal/parallel"
	"mvml/internal/perception"
	"mvml/internal/xrand"
)

// The ablation studies below probe the design choices DESIGN.md calls out:
// the voting scheme, the proactive victim-selection policy, the fault-clock
// semantics, and the Erlang phase count used to cross-validate the DSPN
// simulator.

// AblationRow is one configuration of a driving-side ablation.
type AblationRow struct {
	Name             string
	CollidedRuns     int
	Runs             int
	CollisionRatePct float64
	SkipRatio        float64
}

// AblationResult is a set of compared configurations.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// Render formats the ablation as a table.
func (r *AblationResult) Render() string {
	t := &Table{
		Title:   r.Title,
		Headers: []string{"Configuration", "#Coll", "Coll. rate", "Skip ratio"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			fmt.Sprintf("%d/%d", row.CollidedRuns, row.Runs),
			fmt.Sprintf("%.2f%%", row.CollisionRatePct),
			fmt.Sprintf("%.3f", row.SkipRatio))
	}
	return t.String()
}

// driveArm runs every route once per run index with a pipeline factory and
// aggregates collision statistics. The route x run grid is flattened into
// one fan-out (cfg.Workers bounds concurrency); every episode is
// self-contained — a private pipeline with streams Split from the shared
// root by its (route, run) seed — and the per-episode results come back in
// grid order, so the aggregation reduces in the sequential order for any
// worker count.
func driveArm(cfg CaseStudyConfig, makePipe func(seed uint64, rng *xrand.Rand) (drivesim.PerceptionSystem, error),
	root *xrand.Rand) (AblationRow, error) {
	episodes, err := parallel.Run(root, "episode", drivesim.NumRoutes*cfg.RunsPerRoute,
		parallel.Options{Workers: cfg.Workers}, func(rep int, _ *xrand.Rand) (*drivesim.Result, error) {
			route := 1 + rep/cfg.RunsPerRoute
			run := rep % cfg.RunsPerRoute
			seed := uint64(route*100 + run)
			pipe, err := makePipe(seed, root.Split("sys", seed))
			if err != nil {
				return nil, err
			}
			return drivesim.Run(drivesim.Config{RouteNumber: route, CruiseSpeed: cfg.CruiseSpeed},
				pipe, root.Split("sim", seed))
		})
	if err != nil {
		return AblationRow{}, err
	}
	var row AblationRow
	var collFrames, frames int
	var skipSum float64
	for _, res := range episodes {
		row.Runs++
		frames += res.TotalFrames
		collFrames += res.CollisionFrames
		skipSum += res.SkipRatio()
		if res.Collided {
			row.CollidedRuns++
		}
	}
	if frames > 0 {
		row.CollisionRatePct = 100 * float64(collFrames) / float64(frames)
	}
	row.SkipRatio = skipSum / float64(row.Runs)
	return row, nil
}

// RunVotingAblation compares the object-level quorum voter (default), the
// list-level majority voter, and strict unanimity on the with-rejuvenation
// case study.
func RunVotingAblation(cfg CaseStudyConfig) (*AblationResult, error) {
	root := xrand.New(cfg.Seed + 11)
	voters := []struct {
		name  string
		voter core.Voter[[]drivesim.Detection]
	}{
		{"object-level quorum (default)", perception.NewDetectionVoter(cfg.Detector.MatchRadius)},
		{"list-level majority", perception.NewListVoter(cfg.Detector.MatchRadius)},
		{"unanimous lists", &core.UnanimousVoter[[]drivesim.Detection]{
			Eq: perception.NewListVoter(cfg.Detector.MatchRadius).Eq,
		}},
	}
	res := &AblationResult{Title: "Ablation: voting scheme (3 versions, with rejuvenation)"}
	for vi, v := range voters {
		voter := v.voter
		row, err := driveArm(cfg, func(seed uint64, rng *xrand.Rand) (drivesim.PerceptionSystem, error) {
			return perception.NewPipelineWithVoter(3, cfg.Detector, cfg.System, voter, seed, rng)
		}, root.Split("voter", uint64(vi)))
		if err != nil {
			return nil, fmt.Errorf("experiments: voting ablation %s: %w", v.name, err)
		}
		row.Name = v.name
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// RunSelectionAblation compares the proactive victim-selection policies:
// the case study's 2/3 compromised-first rule against the DSPN's
// count-proportional random choice.
func RunSelectionAblation(cfg CaseStudyConfig) (*AblationResult, error) {
	root := xrand.New(cfg.Seed + 13)
	policies := []struct {
		name string
		mut  func(core.Config) core.Config
	}{
		{"prefer compromised (2/3)", func(c core.Config) core.Config {
			c.Selection = core.SelectPreferCompromised
			c.PreferProb = 2.0 / 3.0
			return c
		}},
		{"uniform by count (w1/w2)", func(c core.Config) core.Config {
			c.Selection = core.SelectByCount
			return c
		}},
		{"always compromised first", func(c core.Config) core.Config {
			c.Selection = core.SelectPreferCompromised
			c.PreferProb = 1
			return c
		}},
	}
	res := &AblationResult{Title: "Ablation: proactive victim selection (3 versions, with rejuvenation)"}
	for pi, p := range policies {
		sysCfg := p.mut(cfg.System)
		row, err := driveArm(cfg, func(seed uint64, rng *xrand.Rand) (drivesim.PerceptionSystem, error) {
			return perception.NewPipeline(3, cfg.Detector, sysCfg, seed, rng)
		}, root.Split("policy", uint64(pi)))
		if err != nil {
			return nil, fmt.Errorf("experiments: selection ablation %s: %w", p.name, err)
		}
		row.Name = p.name
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// ClockAblationResult compares fault-clock semantics: shared single-server
// clocks (DSPN-aligned) versus per-module clocks.
type ClockAblationResult struct {
	// DegradedFraction is the long-run fraction of time with >= 2
	// non-healthy modules, per mode.
	SharedDegraded, PerModuleDegraded float64
}

// clockAblationHorizon is the simulated time each clock semantics runs for.
const clockAblationHorizon = 100_000

// RunClockAblation measures how the two fault-clock semantics change the
// system's exposure to degraded majorities under cfg.System, on streams
// split from cfg.Seed.
func RunClockAblation(cfg CaseStudyConfig) (*ClockAblationResult, error) {
	rng := xrand.New(cfg.Seed)
	degraded := func(perModule bool, r *xrand.Rand) (float64, error) {
		cfg := cfg.System
		cfg.PerModuleClocks = perModule
		versions := make([]core.Version[int, int], 3)
		for i := range versions {
			versions[i] = &core.FuncVersion[int, int]{
				VersionName: fmt.Sprintf("v%d", i+1),
				InferFn:     func(in int) (int, error) { return in, nil },
			}
		}
		sys, err := core.NewSystem[int, int](versions, core.NewEqualityVoter[int](), cfg, r)
		if err != nil {
			return 0, err
		}
		if err := sys.Advance(clockAblationHorizon); err != nil {
			return 0, err
		}
		var frac float64
		for st, occ := range sys.Occupancy() {
			if st.Healthy <= 1 {
				frac += occ
			}
		}
		return frac, nil
	}
	shared, err := degraded(false, rng.Split("shared", 0))
	if err != nil {
		return nil, err
	}
	perModule, err := degraded(true, rng.Split("permodule", 0))
	if err != nil {
		return nil, err
	}
	return &ClockAblationResult{SharedDegraded: shared, PerModuleDegraded: perModule}, nil
}

// Render formats the clock ablation.
func (r *ClockAblationResult) Render() string {
	t := &Table{
		Title:   "Ablation: fault-clock semantics (fraction of time with <= 1 healthy module)",
		Headers: []string{"Clock semantics", "Degraded-majority fraction"},
	}
	t.AddRow("shared single-server (DSPN)", f6(r.SharedDegraded))
	t.AddRow("per-module", f6(r.PerModuleDegraded))
	return t.String()
}
