package drivesim

import (
	"math"
	"testing"

	"mvml/internal/xrand"
)

func TestNewPathValidation(t *testing.T) {
	if _, err := NewPath([]Vec2{{0, 0}}); err == nil {
		t.Fatal("expected error for single point")
	}
	if _, err := NewPath([]Vec2{{0, 0}, {0, 0}}); err == nil {
		t.Fatal("expected error for duplicate point")
	}
}

func TestPathArcLength(t *testing.T) {
	p, err := NewPath([]Vec2{{0, 0}, {3, 0}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Length() != 7 {
		t.Fatalf("length %v, want 7", p.Length())
	}
	if got := p.PointAt(3); got != (Vec2{3, 0}) {
		t.Fatalf("PointAt(3) = %v", got)
	}
	if got := p.PointAt(5); got != (Vec2{3, 2}) {
		t.Fatalf("PointAt(5) = %v", got)
	}
	// Clamping.
	if got := p.PointAt(-1); got != (Vec2{0, 0}) {
		t.Fatalf("PointAt(-1) = %v", got)
	}
	if got := p.PointAt(99); got != (Vec2{3, 4}) {
		t.Fatalf("PointAt(99) = %v", got)
	}
}

func TestPathHeading(t *testing.T) {
	p, err := NewPath([]Vec2{{0, 0}, {10, 0}, {10, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if h := p.HeadingAt(5); math.Abs(h) > 1e-9 {
		t.Fatalf("heading at 5 = %v, want 0", h)
	}
	if h := p.HeadingAt(15); math.Abs(h-math.Pi/2) > 1e-9 {
		t.Fatalf("heading at 15 = %v, want π/2", h)
	}
}

func TestNearestArcLength(t *testing.T) {
	p, err := NewPath([]Vec2{{0, 0}, {10, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if s := p.NearestArcLength(Vec2{4, 3}); math.Abs(s-4) > 1e-9 {
		t.Fatalf("nearest arc length %v, want 4", s)
	}
	if s := p.NearestArcLength(Vec2{-5, 1}); s != 0 {
		t.Fatalf("nearest arc length %v, want 0 (clamped)", s)
	}
}

func TestTownsAndRoutes(t *testing.T) {
	towns := Towns()
	if len(towns) != 4 {
		t.Fatalf("%d towns, want 4", len(towns))
	}
	for _, town := range towns {
		if len(town.Routes) != 2 {
			t.Fatalf("%s has %d routes, want 2", town.Name, len(town.Routes))
		}
		for i, r := range town.Routes {
			if r.Length() < 120 {
				t.Fatalf("%s route %d too short: %v m", town.Name, i, r.Length())
			}
		}
	}
	for n := 1; n <= NumRoutes; n++ {
		if _, _, err := Route(n); err != nil {
			t.Fatalf("route %d: %v", n, err)
		}
	}
	if _, _, err := Route(0); err == nil {
		t.Fatal("expected error for route 0")
	}
	if _, _, err := Route(9); err == nil {
		t.Fatal("expected error for route 9")
	}
}

func TestRouteNumberingMatchesTowns(t *testing.T) {
	_, name1, _ := Route(1)
	_, name3, _ := Route(3)
	_, name8, _ := Route(8)
	if name1 != "Town02" || name3 != "Town03" || name8 != "Town05" {
		t.Fatalf("route->town mapping wrong: %s %s %s", name1, name3, name8)
	}
}

func TestNPCProfileAndMotion(t *testing.T) {
	p, err := NewPath([]Vec2{{0, 0}, {1000, 0}})
	if err != nil {
		t.Fatal(err)
	}
	npc, err := NewNPC(1, p, 0, []SpeedPhase{
		{Until: 5, Speed: 10},
		{Until: 10, Speed: 0},
		{Until: 1e9, Speed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.05
	for frame := 0; frame < int(4/dt); frame++ {
		npc.Step(float64(frame)*dt, dt)
	}
	if v := npc.State().Speed; math.Abs(v-10) > 0.01 {
		t.Fatalf("speed at t=4 is %v, want 10", v)
	}
	for frame := int(4 / dt); frame < int(9/dt); frame++ {
		npc.Step(float64(frame)*dt, dt)
	}
	if v := npc.State().Speed; v != 0 {
		t.Fatalf("speed at t=9 is %v, want 0 (stopped phase)", v)
	}
	for frame := int(9 / dt); frame < int(14/dt); frame++ {
		npc.Step(float64(frame)*dt, dt)
	}
	if v := npc.State().Speed; math.Abs(v-4) > 0.01 {
		t.Fatalf("speed at t=14 is %v, want 4", v)
	}
	if npc.s <= 0 {
		t.Fatal("NPC never moved")
	}
}

func TestNPCValidation(t *testing.T) {
	p, _ := NewPath([]Vec2{{0, 0}, {100, 0}})
	if _, err := NewNPC(1, nil, 0, []SpeedPhase{{Until: 1, Speed: 1}}); err == nil {
		t.Fatal("expected error for nil path")
	}
	if _, err := NewNPC(1, p, 500, []SpeedPhase{{Until: 1, Speed: 1}}); err == nil {
		t.Fatal("expected error for start beyond path")
	}
	if _, err := NewNPC(1, p, 0, nil); err == nil {
		t.Fatal("expected error for empty profile")
	}
	if _, err := NewNPC(1, p, 0, []SpeedPhase{{Until: 5, Speed: 1}, {Until: 3, Speed: 2}}); err == nil {
		t.Fatal("expected error for non-increasing phases")
	}
	if _, err := NewNPC(1, p, 0, []SpeedPhase{{Until: 5, Speed: -1}}); err == nil {
		t.Fatal("expected error for negative speed")
	}
}

func TestNPCStopsAtPathEnd(t *testing.T) {
	p, _ := NewPath([]Vec2{{0, 0}, {20, 0}})
	npc, err := NewNPC(1, p, 0, []SpeedPhase{{Until: 1e9, Speed: 10}})
	if err != nil {
		t.Fatal(err)
	}
	for frame := 0; frame < 200; frame++ {
		npc.Step(float64(frame)*0.05, 0.05)
	}
	if npc.s != p.Length() {
		t.Fatalf("NPC at %v, want clamped to %v", npc.s, p.Length())
	}
	if npc.State().Speed != 0 {
		t.Fatal("NPC should stop at path end")
	}
}

func TestRunConfigValidation(t *testing.T) {
	rng := xrand.New(1)
	if _, err := Run(Config{RouteNumber: 0}, PerfectPerception{}, rng); err == nil {
		t.Fatal("expected error for route 0")
	}
	if _, err := Run(Config{RouteNumber: 1}, nil, rng); err == nil {
		t.Fatal("expected error for nil perception")
	}
	if _, err := Run(Config{RouteNumber: 1}, PerfectPerception{}, nil); err == nil {
		t.Fatal("expected error for nil rng")
	}
}

// TestPerfectPerceptionAvoidsCollisions: with ground-truth perception the
// planner must brake for the stopping lead vehicle on every route.
func TestPerfectPerceptionAvoidsCollisions(t *testing.T) {
	rng := xrand.New(2)
	for route := 1; route <= NumRoutes; route++ {
		res, err := Run(Config{RouteNumber: route}, PerfectPerception{}, rng.Split("run", uint64(route)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Collided {
			t.Errorf("route %d: collision at frame %d despite perfect perception",
				route, res.FirstCollisionFrame)
		}
		if res.TotalFrames < 300 {
			t.Errorf("route %d: suspiciously short run (%d frames)", route, res.TotalFrames)
		}
	}
}

// BlindPerception never sees anything — the worst-case baseline showing the
// scenarios genuinely contain rear-end hazards.
type BlindPerception struct{}

// Perceive implements PerceptionSystem.
func (BlindPerception) Perceive(float64, Scene) (PerceptionResult, error) {
	return PerceptionResult{}, nil
}

// FunctionalModules implements PerceptionSystem.
func (BlindPerception) FunctionalModules() int { return 1 }

// RejuvenatingModules implements PerceptionSystem.
func (BlindPerception) RejuvenatingModules() int { return 0 }

// TestBlindPerceptionCollides: the scenarios must actually contain rear-end
// hazards — driving blind has to end in collision on every route.
func TestBlindPerceptionCollides(t *testing.T) {
	rng := xrand.New(3)
	for route := 1; route <= NumRoutes; route++ {
		res, err := Run(Config{RouteNumber: route}, BlindPerception{}, rng.Split("run", uint64(route)))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Collided {
			t.Errorf("route %d: no collision while driving blind — scenario has no hazard", route)
		}
		if res.CollisionFrames <= 0 {
			t.Errorf("route %d: no collision frame while blind", route)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(Config{RouteNumber: 1}, PerfectPerception{}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{RouteNumber: 1}, PerfectPerception{}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalFrames != b.TotalFrames || a.CollisionFrames != b.CollisionFrames ||
		a.AvgFPS != b.AvgFPS {
		t.Fatal("same-seed runs diverged")
	}
}

func TestCostAccountStructure(t *testing.T) {
	single := &costAccount{}
	triple := &costAccount{}
	for i := 0; i < 100; i++ {
		single.record(1, 0, 2)
		triple.record(3, 0, 2)
	}
	if single.fps() <= triple.fps() {
		t.Fatalf("single-version FPS (%v) must exceed three-version (%v)", single.fps(), triple.fps())
	}
	// The versions run concurrently, so 3v costs far less than 3× 1v.
	ratio := triple.fps() / single.fps()
	if ratio < 0.6 || ratio > 0.85 {
		t.Fatalf("3v/1v FPS ratio %v outside the paper's ≈0.73 band", ratio)
	}
	if triple.gpuPct() <= single.gpuPct() {
		t.Fatal("GPU utilisation should grow with versions")
	}
	if triple.cpuPct() <= single.cpuPct() {
		t.Fatal("CPU utilisation should grow with versions")
	}
}

func TestSkipRatio(t *testing.T) {
	r := &Result{TotalFrames: 200, CollisionFrames: 50, SkippedFrames: 4}
	if got := r.SkipRatio(); got != 0.02 {
		t.Fatalf("skip ratio %v, want 0.02", got)
	}
	if (&Result{}).SkipRatio() != 0 {
		t.Fatal("empty result skip ratio should be 0")
	}
}

func TestVec2Ops(t *testing.T) {
	a, b := Vec2{3, 4}, Vec2{1, 1}
	if a.Len() != 5 {
		t.Fatal("Len")
	}
	if a.Add(b) != (Vec2{4, 5}) || a.Sub(b) != (Vec2{2, 3}) {
		t.Fatal("Add/Sub")
	}
	if a.Scale(2) != (Vec2{6, 8}) {
		t.Fatal("Scale")
	}
	if a.Dot(b) != 7 {
		t.Fatal("Dot")
	}
	if math.Abs(Vec2{0, 2}.Heading()-math.Pi/2) > 1e-12 {
		t.Fatal("Heading")
	}
}

func TestNormAngle(t *testing.T) {
	if got := normAngle(3 * math.Pi); math.Abs(got-math.Pi) > 1e-9 {
		t.Fatalf("normAngle(3π) = %v", got)
	}
	if got := normAngle(-3 * math.Pi); math.Abs(got+math.Pi) > 1e-9 {
		t.Fatalf("normAngle(-3π) = %v", got)
	}
}

func BenchmarkRunPerfect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{RouteNumber: 1}, PerfectPerception{}, xrand.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
