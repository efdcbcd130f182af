package perception

import (
	"math"
	"testing"

	"mvml/internal/core"
	"mvml/internal/drivesim"
	"mvml/internal/xrand"
)

func scene(frame int, t float64, objects ...drivesim.Object) drivesim.Scene {
	return drivesim.Scene{
		Frame:   frame,
		Time:    t,
		Ego:     drivesim.VehicleState{Pos: drivesim.Vec2{X: 0, Y: 0}},
		Objects: objects,
	}
}

func obj(id int, x, y float64) drivesim.Object {
	return drivesim.Object{ID: id, Pos: drivesim.Vec2{X: x, Y: y}}
}

func det(x, y float64) drivesim.Detection {
	return drivesim.Detection{Pos: drivesim.Vec2{X: x, Y: y}}
}

func TestDetectorParamsValidate(t *testing.T) {
	if err := DefaultDetectorParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := DefaultDetectorParams()
	bad.MissHealthy = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for miss > 1")
	}
	bad = DefaultDetectorParams()
	bad.HazardWindow = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero window")
	}
	bad = DefaultDetectorParams()
	bad.MatchRadius = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for negative radius")
	}
	bad = DefaultDetectorParams()
	bad.NoiseCompromisedFar = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for negative noise")
	}
}

func TestHealthyDetectorSeesNearlyEverything(t *testing.T) {
	v, err := NewDetectorVersion("v1", DefaultDetectorParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 2000
	hits := 0
	for f := 0; f < frames; f++ {
		out, err := v.Infer(scene(f, float64(f)*0.05, obj(1, 10, 0)))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 1 {
			hits++
		}
	}
	rate := float64(hits) / frames
	if rate < 0.98 {
		t.Fatalf("healthy detection rate %.3f, want ≥ 0.98", rate)
	}
}

func TestCompromisedMissRates(t *testing.T) {
	p := DefaultDetectorParams()
	v, err := NewDetectorVersion("v1", p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Compromise(); err != nil {
		t.Fatal(err)
	}
	if !v.compromised {
		t.Fatal("Compromise did not flip the flag")
	}
	// Count per-window detection of a near and a far object. A detection
	// belongs to an object if it is within a few sigma of it.
	countDetections := func(objectX float64, windows int) float64 {
		seen := 0
		for w := 0; w < windows; w++ {
			tm := (float64(w) + 0.5) * p.HazardWindow
			frame := int(tm / 0.05)
			out, err := v.Infer(scene(frame, tm, obj(1, objectX, 0)))
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range out {
				if d.Pos.Dist(drivesim.Vec2{X: objectX, Y: 0}) < 7 {
					seen++
					break
				}
			}
		}
		return float64(seen) / float64(windows)
	}
	nearRate := countDetections(8, 3000)
	farRate := countDetections(38, 3000)
	if math.Abs(nearRate-(1-p.MissCompromisedNear)) > 0.05 {
		t.Errorf("near detection rate %.3f, want ≈ %.3f", nearRate, 1-p.MissCompromisedNear)
	}
	if farRate > 1-p.MissCompromisedFar+0.08 {
		t.Errorf("far detection rate %.3f, want ≈ %.3f", farRate, 1-p.MissCompromisedFar)
	}
	if nearRate <= farRate {
		t.Fatal("compromised detector should retain more near-range recall")
	}
	// Restore returns to healthy behaviour.
	if err := v.Restore(); err != nil {
		t.Fatal(err)
	}
	if v.compromised {
		t.Fatal("Restore did not clear the flag")
	}
}

func TestCompromisedMissesAreCommonMode(t *testing.T) {
	// Custom rates make the correlation statistically visible: at the
	// default ~0.9 miss rate, P(both miss) under independence is already
	// ~0.8, leaving no margin to detect the shared component.
	p := DefaultDetectorParams()
	p.GhostCompromised = 0 // phantoms would contaminate the miss attribution
	p.MissCompromisedFar = 0.5
	p.CommonMode = 0.8
	mk := func(name string) *DetectorVersion {
		v, err := NewDetectorVersion(name, p, 42) // shared seed
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Compromise(); err != nil {
			t.Fatal(err)
		}
		return v
	}
	a, b := mk("a"), mk("b")
	const windows = 4000
	bothMiss, aMiss, bMiss := 0, 0, 0
	for w := 0; w < windows; w++ {
		tm := (float64(w) + 0.5) * p.HazardWindow
		frame := int(tm / 0.05)
		sc := scene(frame, tm, obj(1, 30, 0)) // far object
		missOf := func(v *DetectorVersion) bool {
			out, err := v.Infer(sc)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range out {
				if d.Pos.Dist(drivesim.Vec2{X: 30, Y: 0}) < 8 {
					return false
				}
			}
			return true
		}
		ma, mb := missOf(a), missOf(b)
		if ma {
			aMiss++
		}
		if mb {
			bMiss++
		}
		if ma && mb {
			bothMiss++
		}
	}
	pa := float64(aMiss) / windows
	pb := float64(bMiss) / windows
	pBoth := float64(bothMiss) / windows
	if pBoth <= pa*pb+0.05 {
		t.Fatalf("far misses look independent: P(a)=%.2f P(b)=%.2f P(both)=%.2f", pa, pb, pBoth)
	}
}

func TestDetectorDeterministic(t *testing.T) {
	v1, err := NewDetectorVersion("v", DefaultDetectorParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := NewDetectorVersion("v", DefaultDetectorParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	sc := scene(13, 0.65, obj(1, 12, 1), obj(2, 30, -2))
	a, err := v1.Infer(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := v2.Infer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("same-seed versions disagree")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed versions produced different detections")
		}
	}
}

func TestListsAgree(t *testing.T) {
	r := 1.5
	if !listsAgree(nil, nil, r) {
		t.Fatal("two empty lists must agree")
	}
	if listsAgree([]drivesim.Detection{det(0, 0)}, nil, r) {
		t.Fatal("different cardinalities must disagree")
	}
	if !listsAgree(
		[]drivesim.Detection{det(0, 0), det(10, 0)},
		[]drivesim.Detection{det(10, 0.5), det(0.5, 0)}, r) {
		t.Fatal("order-independent matching failed")
	}
	if listsAgree(
		[]drivesim.Detection{det(0, 0)},
		[]drivesim.Detection{det(5, 0)}, r) {
		t.Fatal("far detections must not match")
	}
}

func TestListVoterRules(t *testing.T) {
	v := NewListVoter(1.5)
	mk := func(name string, dets ...drivesim.Detection) core.Proposal[[]drivesim.Detection] {
		return core.Proposal[[]drivesim.Detection]{Module: name, Value: dets}
	}
	// 2-of-3 agreement.
	d := v.Vote([]core.Proposal[[]drivesim.Detection]{
		mk("a", det(5, 0)),
		mk("b", det(5.3, 0)),
		mk("c", det(20, 20), det(3, 3)),
	})
	if d.Skipped || len(d.Value) != 1 {
		t.Fatalf("expected agreeing pair to win: %+v", d)
	}
	// Full divergence skips.
	d = v.Vote([]core.Proposal[[]drivesim.Detection]{
		mk("a", det(5, 0)),
		mk("b", det(10, 0)),
		mk("c"),
	})
	if !d.Skipped {
		t.Fatalf("expected skip on divergence: %+v", d)
	}
}

func TestDetectionVoterQuorum(t *testing.T) {
	v := NewDetectionVoter(1.5)
	mk := func(name string, dets ...drivesim.Detection) core.Proposal[[]drivesim.Detection] {
		return core.Proposal[[]drivesim.Detection]{Module: name, Value: dets}
	}
	// Object seen by 2 of 3 is confirmed even amid garbage.
	d := v.Vote([]core.Proposal[[]drivesim.Detection]{
		mk("a", det(5, 0), det(30, 12)),
		mk("b", det(5.4, 0.3)),
		mk("c", det(22, -9)),
	})
	if d.Skipped {
		t.Fatalf("expected confirmed object: %+v", d)
	}
	if len(d.Value) != 1 {
		t.Fatalf("confirmed %d objects, want 1 (garbage must not pass)", len(d.Value))
	}
	if d.Value[0].Pos.Dist(drivesim.Vec2{X: 5.2, Y: 0.15}) > 0.5 {
		t.Fatalf("confirmed position %v not a centroid of the pair", d.Value[0].Pos)
	}

	// No quorum, but a majority of empty lists confirms "clear" — the
	// agreeing-blind failure mode.
	d = v.Vote([]core.Proposal[[]drivesim.Detection]{
		mk("a", det(5, 0)),
		mk("b"),
		mk("c"),
	})
	if d.Skipped || len(d.Value) != 0 {
		t.Fatalf("expected wrong-clear majority: %+v", d)
	}

	// No quorum, non-empty disagreement: safe skip.
	d = v.Vote([]core.Proposal[[]drivesim.Detection]{
		mk("a", det(5, 0)),
		mk("b", det(15, 3)),
		mk("c", det(30, -8)),
	})
	if !d.Skipped {
		t.Fatalf("expected skip: %+v", d)
	}

	// R.2: two versions must agree fully.
	d = v.Vote([]core.Proposal[[]drivesim.Detection]{
		mk("a", det(5, 0)),
		mk("b", det(5.2, 0.1)),
	})
	if d.Skipped {
		t.Fatalf("expected 2-version agreement: %+v", d)
	}
	d = v.Vote([]core.Proposal[[]drivesim.Detection]{
		mk("a", det(5, 0)),
		mk("b", det(5, 0), det(9, 0)),
	})
	if !d.Skipped {
		t.Fatalf("expected 2-version divergence skip: %+v", d)
	}

	// R.3: single version trusted.
	d = v.Vote([]core.Proposal[[]drivesim.Detection]{mk("a", det(7, 0))})
	if d.Skipped || len(d.Value) != 1 {
		t.Fatalf("expected single proposal accepted: %+v", d)
	}

	// No proposals.
	if d := v.Vote(nil); !d.Skipped {
		t.Fatal("expected skip with no proposals")
	}
}

func TestNewPipelineValidation(t *testing.T) {
	rng := xrand.New(1)
	if _, err := NewPipeline(0, DefaultDetectorParams(), core.CaseStudyConfig(), 1, rng); err == nil {
		t.Fatal("expected error for 0 versions")
	}
	bad := DefaultDetectorParams()
	bad.MissHealthy = 2
	if _, err := NewPipeline(3, bad, core.CaseStudyConfig(), 1, rng); err == nil {
		t.Fatal("expected error for bad detector params")
	}
	badCfg := core.CaseStudyConfig()
	badCfg.MeanTimeToCompromise = -1
	if _, err := NewPipeline(3, DefaultDetectorParams(), badCfg, 1, rng); err == nil {
		t.Fatal("expected error for bad system config")
	}
}

func TestPipelineFunctionalModules(t *testing.T) {
	pipe, err := NewPipeline(3, DefaultDetectorParams(), core.Config{DisableFaults: true}, 1, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := pipe.FunctionalModules(); got != 3 {
		t.Fatalf("FunctionalModules = %d, want 3", got)
	}
	out, err := pipe.Perceive(0.05, scene(1, 0.05, obj(1, 10, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Skipped {
		t.Fatal("healthy pipeline skipped")
	}
	if len(out.Objects) != 1 {
		t.Fatalf("healthy pipeline saw %d objects, want 1", len(out.Objects))
	}
}

// TestTableVIShape is the integration check for the case study: with
// time-triggered rejuvenation the ego completes every route without a
// collision; without any rejuvenation most runs collide at a substantial
// collision-frame rate. This is the paper's RQ1 answer (Table VI shape).
func TestTableVIShape(t *testing.T) {
	root := xrand.New(2025)
	type agg struct {
		collRuns, runs     int
		collFrames, frames int
	}
	results := map[bool]*agg{true: {}, false: {}}
	for _, rej := range []bool{true, false} {
		for route := 1; route <= drivesim.NumRoutes; route++ {
			for run := 0; run < 5; run++ {
				cfg := core.CaseStudyConfig()
				if !rej {
					cfg.RejuvenationInterval = 0
					cfg.DisableReactive = true
				}
				seed := uint64(route*100 + run)
				pipe, err := NewPipeline(3, DefaultDetectorParams(), cfg, seed, root.Split("sys", seed))
				if err != nil {
					t.Fatal(err)
				}
				res, err := drivesim.Run(drivesim.Config{RouteNumber: route, CruiseSpeed: 10},
					pipe, root.Split("sim", seed))
				if err != nil {
					t.Fatal(err)
				}
				a := results[rej]
				a.runs++
				a.frames += res.TotalFrames
				a.collFrames += res.CollisionFrames
				if res.Collided {
					a.collRuns++
				}
			}
		}
	}
	with, without := results[true], results[false]
	if with.collRuns != 0 {
		t.Errorf("with rejuvenation: %d/%d runs collided, want 0 (paper Table VI)", with.collRuns, with.runs)
	}
	if without.collRuns < 20 {
		t.Errorf("without rejuvenation: only %d/%d runs collided, want most (paper: 33/40)",
			without.collRuns, without.runs)
	}
	rate := 100 * float64(without.collFrames) / float64(without.frames)
	if rate < 8 {
		t.Errorf("without rejuvenation: collision rate %.2f%%, want double digits (paper: 33.5%%)", rate)
	}
}

// TestSkipRatioModest verifies the with-rejuvenation system skips only a
// small fraction of frames (the paper reports ≈2%; our voter is somewhat
// stricter).
func TestSkipRatioModest(t *testing.T) {
	root := xrand.New(5)
	pipe, err := NewPipeline(3, DefaultDetectorParams(), core.CaseStudyConfig(), 9, root.Split("sys", 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := drivesim.Run(drivesim.Config{RouteNumber: 1, CruiseSpeed: 10}, pipe, root.Split("sim", 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.SkipRatio() > 0.15 {
		t.Fatalf("skip ratio %.3f too high", res.SkipRatio())
	}
}

func BenchmarkPipelinePerceive(b *testing.B) {
	pipe, err := NewPipeline(3, DefaultDetectorParams(), core.Config{DisableFaults: true}, 1, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	sc := scene(0, 0, obj(1, 12, 0), obj(2, 30, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Frame = i
		sc.Time = float64(i) * 0.05
		if _, err := pipe.Perceive(sc.Time, sc); err != nil {
			b.Fatal(err)
		}
	}
}
