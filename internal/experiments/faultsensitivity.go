package experiments

import (
	"fmt"
	"strings"

	"mvml/internal/faultinject"
	"mvml/internal/nn"
	"mvml/internal/signs"
	"mvml/internal/xrand"
)

// FaultSensitivityResult bundles per-kind fault-injection campaigns over one
// trained classifier — the per-layer fragility analysis the paper's FI
// tooling (§II-B) is built for.
type FaultSensitivityResult struct {
	Model     string
	Campaigns []*faultinject.CampaignResult
}

// RunFaultSensitivity trains one LeNet-style classifier on the configured
// dataset and sweeps every parameterised layer with the weight-value
// (the paper's random_weight_inj range) and bit-flip fault models.
// Injection trials fan out over `workers` goroutines (<= 0 = GOMAXPROCS)
// on replicated networks; results are identical for every worker count.
func RunFaultSensitivity(cfg TableIIConfig, trialsPerLayer, workers int) (*FaultSensitivityResult, error) {
	if trialsPerLayer < 1 {
		return nil, fmt.Errorf("experiments: trialsPerLayer %d < 1", trialsPerLayer)
	}
	ds, err := signs.Generate(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	root := xrand.New(cfg.Seed + 7)
	net := nn.NewLeNetSmall(signs.NumClasses, root.Split("init", 0))
	if err := nn.Train(net, ds.Train, cfg.TrainConfig, root.Split("train", 0)); err != nil {
		return nil, err
	}

	// Concurrent trials need private networks: rebuild the architecture
	// (the init draws are overwritten) and copy the trained weights in.
	trained := net.CloneWeights()
	replicate := func() (*nn.Network, error) {
		clone := nn.NewLeNetSmall(signs.NumClasses, xrand.New(0))
		if err := clone.RestoreWeights(trained); err != nil {
			return nil, err
		}
		return clone, nil
	}

	res := &FaultSensitivityResult{Model: net.Name}
	kinds := []faultinject.CampaignConfig{
		{
			Kind: faultinject.KindWeightValue, TrialsPerLayer: trialsPerLayer,
			MinVal: cfg.InjectMin, MaxVal: cfg.InjectMax,
			CriticalAccuracy: 0.5, Seed: cfg.Seed,
			Workers: workers, Replicate: replicate,
		},
		{
			Kind: faultinject.KindBitFlip, TrialsPerLayer: trialsPerLayer,
			CriticalAccuracy: 0.5, Seed: cfg.Seed,
			Workers: workers, Replicate: replicate,
		},
	}
	for _, kindCfg := range kinds {
		campaign, err := faultinject.RunCampaign(net, ds.Test, kindCfg, root.Split("campaign", uint64(kindCfg.Kind)))
		if err != nil {
			return nil, fmt.Errorf("experiments: %v campaign: %w", kindCfg.Kind, err)
		}
		res.Campaigns = append(res.Campaigns, campaign)
	}
	return res, nil
}

// Render formats the study.
func (r *FaultSensitivityResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension: per-layer fault sensitivity of %s\n\n", r.Model)
	for _, c := range r.Campaigns {
		sb.WriteString(c.Render())
		sb.WriteByte('\n')
	}
	return sb.String()
}
