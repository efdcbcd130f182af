package experiments

import (
	"fmt"

	"mvml/internal/core"
	"mvml/internal/nn"
	"mvml/internal/reliability"
	"mvml/internal/signs"
	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

// The diversity study implements another of the paper's future-work
// directions (§VIII: "other aspects of diversification, such as input, ML
// models, and training dataset diversity"): it measures how three sources of
// ensemble diversity change the error-dependency factor α and the voted
// 2-out-of-3 accuracy.

// DiversityArm names one diversification strategy.
type DiversityArm int

// The diversification strategies under study.
const (
	// DiversityNone trains three copies of the same architecture on the
	// same data; only the weight initialisation differs.
	DiversityNone DiversityArm = iota + 1
	// DiversityData trains three copies of the same architecture on
	// disjoint thirds of the training set.
	DiversityData
	// DiversityArchitecture trains the three different architectures on
	// the same data — the paper's own setup.
	DiversityArchitecture
)

func (a DiversityArm) String() string {
	switch a {
	case DiversityNone:
		return "init only (same arch, same data)"
	case DiversityData:
		return "training-data diversity (same arch)"
	case DiversityArchitecture:
		return "architecture diversity (paper setup)"
	default:
		return fmt.Sprintf("DiversityArm(%d)", int(a))
	}
}

// DiversityRow is the measurement for one arm.
type DiversityRow struct {
	Arm DiversityArm
	// MeanAccuracy is the mean single-model accuracy.
	MeanAccuracy float64
	// Alpha is the measured error dependency (Eq. 9).
	Alpha float64
	// VotedAccuracy is the 2-out-of-3 majority-voted accuracy.
	VotedAccuracy float64
	// SkipRatio is the voter's skip ratio on the test set.
	SkipRatio float64
}

// DiversityResult is the full study.
type DiversityResult struct {
	Rows []DiversityRow
}

// RunDiversityStudy trains each arm's ensemble and evaluates it on the
// shared test set.
func RunDiversityStudy(cfg TableIIConfig) (*DiversityResult, error) {
	ds, err := signs.Generate(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	root := xrand.New(cfg.Seed + 99)
	res := &DiversityResult{}
	for _, arm := range []DiversityArm{DiversityNone, DiversityData, DiversityArchitecture} {
		row, err := runDiversityArm(arm, cfg, ds, root.Split("arm", uint64(arm)))
		if err != nil {
			return nil, fmt.Errorf("experiments: diversity arm %v: %w", arm, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runDiversityArm(arm DiversityArm, cfg TableIIConfig, ds *signs.Dataset, rng *xrand.Rand) (DiversityRow, error) {
	var nets []*nn.Network
	for i := 0; i < 3; i++ {
		var net *nn.Network
		var err error
		if arm == DiversityArchitecture {
			net, err = nn.NewModel(nn.AllModels()[i], signs.NumClasses, rng.Split("init", uint64(i)))
			if err != nil {
				return DiversityRow{}, err
			}
		} else {
			net = nn.NewLeNetSmall(signs.NumClasses, rng.Split("init", uint64(i)))
			// Distinguish the three same-architecture versions by name so
			// the multi-version system accepts them.
			net.Name = fmt.Sprintf("lenet-small-%d", i+1)
		}
		train := ds.Train
		if arm == DiversityData {
			// Disjoint thirds.
			third := len(ds.Train) / 3
			train = ds.Train[i*third : (i+1)*third]
		}
		if err := nn.Train(net, train, cfg.TrainConfig, rng.Split("train", uint64(i))); err != nil {
			return DiversityRow{}, err
		}
		nets = append(nets, net)
	}

	row := DiversityRow{Arm: arm}
	var errorSets []map[int]bool
	var accSum float64
	for _, net := range nets {
		acc, err := net.Accuracy(ds.Test)
		if err != nil {
			return DiversityRow{}, err
		}
		accSum += acc
		errs, err := net.ErrorSet(ds.Test)
		if err != nil {
			return DiversityRow{}, err
		}
		errorSets = append(errorSets, errs)
	}
	row.MeanAccuracy = accSum / 3
	row.Alpha = reliability.AlphaThreeVersion(errorSets[0], errorSets[1], errorSets[2])

	// Voted accuracy over the real model outputs.
	var versions []core.Version[*tensor.Tensor, int]
	for _, net := range nets {
		// Faults are disabled, so a version is only ever asked to infer.
		versions = append(versions, &core.FuncVersion[*tensor.Tensor, int]{VersionName: net.Name, InferFn: net.Predict})
	}
	sys, err := core.NewSystem[*tensor.Tensor, int](
		versions, core.NewEqualityVoter[int](), core.Config{DisableFaults: true}, rng.Split("sys", 0))
	if err != nil {
		return DiversityRow{}, err
	}
	correct := 0
	for i, sample := range ds.Test {
		d, _, err := sys.Infer(float64(i), sample.X)
		if err != nil {
			return DiversityRow{}, err
		}
		if !d.Skipped && d.Value == sample.Label {
			correct++
		}
	}
	row.VotedAccuracy = float64(correct) / float64(len(ds.Test))
	row.SkipRatio = sys.Stats().SkipRatio()
	return row, nil
}

// Render formats the study.
func (r *DiversityResult) Render() string {
	t := &Table{
		Title:   "Extension: sources of ensemble diversity (paper future work)",
		Headers: []string{"Diversity", "Mean acc.", "alpha", "2oo3 voted acc.", "Skip ratio"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Arm.String(), f6(row.MeanAccuracy), f6(row.Alpha),
			f6(row.VotedAccuracy), f3(row.SkipRatio))
	}
	t.Notes = append(t.Notes, "lower alpha = more independent errors = more maskable by voting")
	return t.String()
}
