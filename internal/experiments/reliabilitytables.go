package experiments

import (
	"fmt"

	"mvml/internal/reliability"
)

// TableIIIResult lists the reliability-function value of every reachable
// system state (the paper's Table III).
type TableIIIResult struct {
	Params reliability.Params
	States []reliability.State
	Values []float64
}

// RunTableIII evaluates the reliability functions of Section V-B for every
// (i, j, k) state with 1–3 functional modules.
func RunTableIII(params reliability.Params) (*TableIIIResult, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	res := &TableIIIResult{Params: params}
	// The paper's Table III lists the states in this order.
	states := []reliability.State{
		{Healthy: 3}, {Healthy: 2, NonFunctional: 1}, {Healthy: 2, Compromised: 1},
		{Healthy: 1, NonFunctional: 2}, {Healthy: 1, Compromised: 1, NonFunctional: 1},
		{Healthy: 1, Compromised: 2}, {Compromised: 3}, {Compromised: 2, NonFunctional: 1},
		{Compromised: 1, NonFunctional: 2},
	}
	for _, s := range states {
		v, err := params.StateReliability(s)
		if err != nil {
			return nil, err
		}
		res.States = append(res.States, s)
		res.Values = append(res.Values, v)
	}
	return res, nil
}

// Render formats the result like the paper's Table III.
func (r *TableIIIResult) Render() string {
	t := &Table{
		Title:   "Table III: output reliability of the reliability functions per system state",
		Headers: []string{"System state", "Reliability"},
	}
	for i, s := range r.States {
		t.AddRow(s.String(), f9(r.Values[i]))
	}
	return t.String()
}

// RenderTableIV prints the model input parameters (the paper's Table IV).
func RenderTableIV(p reliability.Params) string {
	t := &Table{
		Title:   "Table IV: default input parameters for the DSPN models",
		Headers: []string{"Param", "Description", "Value"},
	}
	t.AddRow("alpha", "Error probability dependency", f6(p.Alpha))
	t.AddRow("p", "Output failure probability (healthy)", f6(p.P))
	t.AddRow("p'", "Output failure probability (compromised)", f6(p.PPrime))
	t.AddRow("1/lambda_c", "Mean time to compromise a module", fmt.Sprintf("%.0f s", p.MeanTimeToCompromise))
	t.AddRow("1/lambda", "Module's mean time to failure", fmt.Sprintf("%.0f s", p.MeanTimeToFailure))
	t.AddRow("1/mu", "Mean time to reactive rejuvenate", fmt.Sprintf("%.1f s", p.MeanReactiveRejuvenation))
	t.AddRow("1/mu_r", "Mean time to proactive rejuvenate", fmt.Sprintf("%.1f s", p.MeanProactiveRejuvenation))
	t.AddRow("1/gamma", "Rejuvenation interval", fmt.Sprintf("%.0f s", p.RejuvenationInterval))
	return t.String()
}

// TableVResult holds the steady-state reliabilities of the six
// configurations (1/2/3 versions × with/without proactive rejuvenation).
type TableVResult struct {
	Params  reliability.Params
	Without [4]float64 // index by n (1..3)
	With    [4]float64
}

// RunTableV solves the DSPN models of Figs. 2 and 3 exactly for one-, two-
// and three-version systems: the without-proactive column as a CTMC, the
// with-proactive column as a Markov regenerative process.
func RunTableV(params reliability.Params) (*TableVResult, error) {
	res := &TableVResult{Params: params}
	var err error
	if res.Without, res.With, err = solveConfigurations(params); err != nil {
		return nil, fmt.Errorf("experiments: table V: %w", err)
	}
	return res, nil
}

// solveConfigurations solves the six configurations exactly: 1–3 versions
// without and with proactive rejuvenation, each indexed by version count.
func solveConfigurations(params reliability.Params) (without, with [4]float64, err error) {
	for n := 1; n <= 3; n++ {
		for _, proactive := range []bool{false, true} {
			model, err := reliability.NewModel(n, params, proactive)
			if err != nil {
				return without, with, err
			}
			exact, err := model.SolveExact()
			if err != nil {
				return without, with, err
			}
			if proactive {
				with[n] = exact.Expected
			} else {
				without[n] = exact.Expected
			}
		}
	}
	return without, with, nil
}

// Render formats the result like the paper's Table V.
func (r *TableVResult) Render() string {
	t := &Table{
		Title:   "Table V: steady-state reliability with and without proactive rejuvenation",
		Headers: []string{"Configuration", "w/o rej.", "w/ rej."},
	}
	names := []string{"", "Single-version (baseline)", "Two-version", "Three-version"}
	for n := 1; n <= 3; n++ {
		t.AddRow(names[n], f6(r.Without[n]), f6(r.With[n]))
	}
	t.Notes = append(t.Notes,
		"w/o column: exact CTMC solution; w/ column: exact DSPN solution (Markov regenerative)",
		fmt.Sprintf("paper: 0.848211/0.920217, 0.943875/0.967152, 0.903190/0.952998"))
	return t.String()
}

// Fig4Point is one x-coordinate of a Fig. 4 sweep with the six series
// values.
type Fig4Point struct {
	X float64
	// Without and With are indexed by version count (1..3).
	Without [4]float64
	With    [4]float64
}

// Fig4Result is a full parameter sweep (one of Fig. 4 a–f).
type Fig4Result struct {
	Name   string // e.g. "4a"
	XLabel string
	Points []Fig4Point
}

// fig4Sweep evaluates the six configurations across a parameter sweep.
// mutate applies the x value to a copy of the base parameters.
func fig4Sweep(name, xlabel string, xs []float64, base reliability.Params,
	mutate func(reliability.Params, float64) reliability.Params) (*Fig4Result, error) {

	res := &Fig4Result{Name: name, XLabel: xlabel}
	for _, x := range xs {
		point := Fig4Point{X: x}
		var err error
		if point.Without, point.With, err = solveConfigurations(mutate(base, x)); err != nil {
			return nil, fmt.Errorf("experiments: fig %s at %v: %w", name, x, err)
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}

func sweepGrid(lo, hi float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return xs
}

// RunFig4 produces one of the paper's Fig. 4 sweeps by letter (a–f) on the
// paper's ranges, solving every point exactly.
func RunFig4(letter string, base reliability.Params) (*Fig4Result, error) {
	switch letter {
	case "a":
		return fig4Sweep("4a", "rejuvenation interval 1/gamma (s)", sweepGrid(50, 3000, 9), base,
			func(p reliability.Params, x float64) reliability.Params {
				p.RejuvenationInterval = x
				return p
			})
	case "b":
		return fig4Sweep("4b", "rejuvenation duration 1/mu_r (s)", sweepGrid(0.1, 50, 9), base,
			func(p reliability.Params, x float64) reliability.Params {
				p.MeanProactiveRejuvenation = x
				return p
			})
	case "c":
		return fig4Sweep("4c", "mean time to compromise 1/lambda_c (s)", sweepGrid(100, 7000, 9), base,
			func(p reliability.Params, x float64) reliability.Params {
				p.MeanTimeToCompromise = x
				return p
			})
	case "d":
		return fig4Sweep("4d", "error dependency alpha", sweepGrid(0.1, 1.0, 10), base,
			func(p reliability.Params, x float64) reliability.Params {
				p.Alpha = x
				return p
			})
	case "e":
		return fig4Sweep("4e", "healthy inaccuracy p", sweepGrid(0.01, 0.23, 9), base,
			func(p reliability.Params, x float64) reliability.Params {
				p.P = x
				return p
			})
	case "f":
		return fig4Sweep("4f", "compromised inaccuracy p'", sweepGrid(0.1, 0.6, 9), base,
			func(p reliability.Params, x float64) reliability.Params {
				p.PPrime = x
				return p
			})
	default:
		return nil, fmt.Errorf("experiments: unknown Fig. 4 sweep %q (want a-f)", letter)
	}
}

// Render formats the sweep as a series table.
func (r *Fig4Result) Render() string {
	t := &Table{
		Title: fmt.Sprintf("Fig. %s: reliability vs %s", r.Name, r.XLabel),
		Headers: []string{r.XLabel,
			"1v w/o", "1v w/", "2v w/o", "2v w/", "3v w/o", "3v w/"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%.4g", p.X),
			f6(p.Without[1]), f6(p.With[1]),
			f6(p.Without[2]), f6(p.With[2]),
			f6(p.Without[3]), f6(p.With[3]))
	}
	return t.String()
}
