package faultinject

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"mvml/internal/nn"
	"mvml/internal/xrand"
)

func campaignConfig() CampaignConfig {
	return CampaignConfig{
		Kind:             KindWeightValue,
		TrialsPerLayer:   4,
		MinVal:           -10,
		MaxVal:           30,
		CriticalAccuracy: 0.05,
		Seed:             7,
	}
}

func TestCampaignValidation(t *testing.T) {
	bad := campaignConfig()
	bad.Kind = Kind(99)
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	bad = campaignConfig()
	bad.TrialsPerLayer = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero trials")
	}
	bad = campaignConfig()
	bad.MinVal, bad.MaxVal = 5, 5
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for empty range")
	}
}

func TestCampaignSweepsAllLayersAndRestores(t *testing.T) {
	net := testNet(t)
	eval := syntheticEval(30, xrand.New(3))
	before := net.CloneWeights()

	res, err := RunCampaign(net, eval, campaignConfig(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) != len(net.ParamLayers()) {
		t.Fatalf("swept %d layers, want %d", len(res.Layers), len(net.ParamLayers()))
	}
	for _, l := range res.Layers {
		if l.Trials != 4 {
			t.Fatalf("layer %d ran %d trials", l.Layer, l.Trials)
		}
		if l.MeanAccuracy < 0 || l.MeanAccuracy > 1 || l.MinAccuracy > l.MeanAccuracy+1e-12 {
			t.Fatalf("layer %d stats inconsistent: %+v", l.Layer, l)
		}
		if l.CriticalFraction < 0 || l.CriticalFraction > 1 {
			t.Fatalf("layer %d critical fraction %v", l.Layer, l.CriticalFraction)
		}
	}
	// The model is pristine afterwards.
	params := net.Params()
	for i, p := range params {
		for j := range p.Data {
			if p.Data[j] != before[i][j] {
				t.Fatal("campaign left the model modified")
			}
		}
	}
	if !strings.Contains(res.Render(), "baseline") {
		t.Fatal("render broken")
	}
}

func TestCampaignRespectsLayerSelection(t *testing.T) {
	net := testNet(t)
	eval := syntheticEval(20, xrand.New(5))
	cfg := campaignConfig()
	cfg.Layers = []int{0, 2}
	cfg.Kind = KindBitFlip
	res, err := RunCampaign(net, eval, cfg, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) != 2 || res.Layers[0].Layer != 0 || res.Layers[1].Layer != 2 {
		t.Fatalf("unexpected layer selection: %+v", res.Layers)
	}
	cfg.Layers = []int{99}
	if _, err := RunCampaign(net, eval, cfg, xrand.New(2)); err == nil {
		t.Fatal("expected error for bad layer")
	}
}

func TestCampaignStuckAtZero(t *testing.T) {
	net := testNet(t)
	eval := syntheticEval(20, xrand.New(6))
	cfg := campaignConfig()
	cfg.Kind = KindStuckAtZero
	cfg.TrialsPerLayer = 2
	if _, err := RunCampaign(net, eval, cfg, xrand.New(3)); err != nil {
		t.Fatal(err)
	}
}

func TestCampaignErrors(t *testing.T) {
	net := testNet(t)
	if _, err := RunCampaign(net, nil, campaignConfig(), xrand.New(1)); err == nil {
		t.Fatal("expected error for empty eval set")
	}
	if _, err := RunCampaign(net, syntheticEval(5, xrand.New(1)), campaignConfig(), nil); err == nil {
		t.Fatal("expected error for nil rng")
	}
}

func TestKindString(t *testing.T) {
	if KindWeightValue.String() != "weight-value" || KindBitFlip.String() != "bit-flip" ||
		KindStuckAtZero.String() != "stuck-at-zero" {
		t.Fatal("Kind.String broken")
	}
}

// specCampaign is what RunCampaign must return, computed the slow way: the
// same per-trial streams (Seed split by layer and trial), every accuracy from
// a per-sample Predict loop instead of Network.Accuracy.
func specCampaign(t *testing.T, net *nn.Network, eval []nn.Sample, cfg CampaignConfig) *CampaignResult {
	t.Helper()
	accuracy := func() float64 {
		correct := 0
		for _, s := range eval {
			pred, err := net.Predict(s.X)
			if err != nil {
				t.Fatal(err)
			}
			if pred == s.Label {
				correct++
			}
		}
		return float64(correct) / float64(len(eval))
	}
	res := &CampaignResult{Kind: cfg.Kind, Baseline: accuracy()}
	root := xrand.New(cfg.Seed)
	for _, pl := range net.ParamLayers() {
		impact := LayerImpact{Layer: pl.Index, Name: pl.Name, Baseline: res.Baseline, MinAccuracy: 1}
		var sum float64
		critical := 0
		for trial := 0; trial < cfg.TrialsPerLayer; trial++ {
			r := root.Split(fmt.Sprintf("campaign/%d", pl.Index), uint64(trial))
			inj, err := RandomWeightInj(net, pl.Index, cfg.MinVal, cfg.MaxVal, r)
			if err != nil {
				t.Fatal(err)
			}
			acc := accuracy()
			inj.Revert()
			sum += acc
			impact.MinAccuracy = math.Min(impact.MinAccuracy, acc)
			if acc < cfg.CriticalAccuracy {
				critical++
			}
			impact.Trials++
		}
		impact.MeanAccuracy = sum / float64(impact.Trials)
		impact.CriticalFraction = float64(critical) / float64(impact.Trials)
		res.Layers = append(res.Layers, impact)
	}
	return res
}

// Campaign trials evaluate on each replica's private arena; the result must
// be the per-sample evaluator's at every worker count (run under -race: the
// replicas must share nothing).
func TestCampaignMatchesPerSampleEvaluator(t *testing.T) {
	eval := syntheticEval(37, xrand.New(3)) // one full evaluation chunk and a ragged one
	cfg := campaignConfig()
	cfg.Replicate = func() (*nn.Network, error) { return testNet(t), nil }
	want := specCampaign(t, testNet(t), eval, cfg)
	moved := false
	for _, l := range want.Layers {
		moved = moved || l.MinAccuracy != want.Baseline
	}
	if !moved {
		t.Fatal("no trial moved the accuracy: the comparison below would be vacuous")
	}
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		got, err := RunCampaign(testNet(t), eval, cfg, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers %d: campaign\n%+v\nwant the per-sample evaluator's\n%+v", workers, got, want)
		}
	}
}
