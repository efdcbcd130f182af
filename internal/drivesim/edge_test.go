package drivesim

import (
	"math"
	"strings"
	"testing"

	"mvml/internal/xrand"
)

// TestConfigValidateNonFinite: NaN slips past every "< 0" comparison and Inf
// survives them, so Validate must reject non-finite values explicitly —
// otherwise int(NaN) decides the frame count (platform-defined) and the run
// silently does nothing or never ends.
func TestConfigValidateNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{RouteNumber: 1}, true},
		{"nan dt", Config{RouteNumber: 1, DT: nan}, false},
		{"inf dt", Config{RouteNumber: 1, DT: inf}, false},
		{"nan cruise", Config{RouteNumber: 1, CruiseSpeed: nan}, false},
		{"inf cruise", Config{RouteNumber: 1, CruiseSpeed: inf}, false},
		{"nan sensor range", Config{RouteNumber: 1, SensorRange: nan}, false},
		{"neg match radius", Config{RouteNumber: 1, DetectionMatchRadius: -1}, false},
		{"nan match radius", Config{RouteNumber: 1, DetectionMatchRadius: nan}, false},
		{"neg dt", Config{RouteNumber: 1, DT: -0.05}, false},
		{"route high", Config{RouteNumber: 9}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
	// Run must surface the same rejection rather than simulating garbage.
	if _, err := Run(Config{RouteNumber: 1, CruiseSpeed: nan}, PerfectPerception{}, xrand.New(1)); err == nil {
		t.Fatal("Run accepted a NaN cruise speed")
	}
}

// TestNewNPCNonFinitePhases: a NaN phase speed used to pass the "< 0" check
// and then propagate into the NPC's arc length, turning every later position
// into NaN with no error anywhere — the silent-NaN class of bug.
func TestNewNPCNonFinitePhases(t *testing.T) {
	p, err := NewPath([]Vec2{{0, 0}, {100, 0}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		profile []SpeedPhase
	}{
		{"nan speed", []SpeedPhase{{Until: 5, Speed: math.NaN()}}},
		{"inf speed", []SpeedPhase{{Until: 5, Speed: math.Inf(1)}}},
		{"nan until", []SpeedPhase{{Until: math.NaN(), Speed: 3}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewNPC(1, p, 0, tc.profile); err == nil {
				t.Fatal("expected error for non-finite phase")
			}
		})
	}
	// Regression check for the silent propagation itself: before the fix, a
	// NaN-speed NPC stepped to a NaN position without any error.
	npc, err := NewNPC(1, p, 0, []SpeedPhase{{Until: 1e9, Speed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		npc.Step(float64(i)*0.05, 0.05)
	}
	if pos := npc.State().Pos; math.IsNaN(pos.X) || math.IsNaN(pos.Y) {
		t.Fatal("finite profile produced NaN position")
	}
}

// TestScenarioNPCsShortRoutes: the scripted-traffic builder must cope with
// routes far shorter than the eight evaluation routes — near-zero-length
// paths clamp the spawn points into the path instead of erroring out.
func TestScenarioNPCsShortRoutes(t *testing.T) {
	lengths := []float64{4, 12, 30, 60, 200}
	for _, length := range lengths {
		p, err := NewPath([]Vec2{{0, 0}, {length, 0}})
		if err != nil {
			t.Fatal(err)
		}
		npcs, err := scenarioNPCs(3, p)
		if err != nil {
			t.Fatalf("length %v: %v", length, err)
		}
		if len(npcs) != 2 {
			t.Fatalf("length %v: %d NPCs, want 2", length, len(npcs))
		}
		for _, n := range npcs {
			if s := n.s; s < 0 || s > p.Length() {
				t.Fatalf("length %v: NPC %d spawned at %v outside [0, %v]",
					length, n.ID, s, p.Length())
			}
		}
	}
}

// TestPlanSpeedEdgeCases: table-driven coverage of the target-speed planner,
// including the NaN/Inf detection guard (a NaN position slides through the
// corridor test because every NaN comparison is false).
func TestPlanSpeedEdgeCases(t *testing.T) {
	route, err := NewPath([]Vec2{{0, 0}, {200, 0}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{RouteNumber: 1}
	cfg.fillDefaults()
	stopped := VehicleState{Pos: Vec2{50, 0}}
	cases := []struct {
		name    string
		ego     VehicleState
		objects []Detection
		want    func(v float64) bool
		desc    string
	}{
		{"empty scene cruises", stopped, nil,
			func(v float64) bool { return v == cfg.CruiseSpeed }, "cruise"},
		{"obstacle behind ignored", stopped, []Detection{{Pos: Vec2{30, 0}}},
			func(v float64) bool { return v == cfg.CruiseSpeed }, "cruise"},
		{"obstacle at ego ignored", stopped, []Detection{{Pos: Vec2{50, 0}}},
			func(v float64) bool { return v == cfg.CruiseSpeed }, "cruise"},
		{"obstacle inside hard-stop gap", stopped, []Detection{{Pos: Vec2{54, 0}}},
			func(v float64) bool { return v == 0 }, "full stop"},
		{"obstacle ahead limits speed", stopped, []Detection{{Pos: Vec2{65, 0}}},
			func(v float64) bool { return v > 0 && v < cfg.CruiseSpeed }, "braking limit"},
		{"lateral obstacle ignored", stopped, []Detection{{Pos: Vec2{65, 5}}},
			func(v float64) bool { return v == cfg.CruiseSpeed }, "cruise"},
		{"nan detection ignored", stopped,
			[]Detection{{Pos: Vec2{math.NaN(), math.NaN()}}},
			func(v float64) bool { return v == cfg.CruiseSpeed }, "cruise"},
		{"inf detection ignored", stopped,
			[]Detection{{Pos: Vec2{math.Inf(1), 0}}},
			func(v float64) bool { return v == cfg.CruiseSpeed }, "cruise"},
		{"nan detection does not mask a real hazard", stopped,
			[]Detection{{Pos: Vec2{math.NaN(), 0}}, {Pos: Vec2{54, 0}}},
			func(v float64) bool { return v == 0 }, "full stop"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := planSpeed(cfg, route, tc.ego, tc.objects)
			if math.IsNaN(got) {
				t.Fatalf("planSpeed returned NaN")
			}
			if !tc.want(got) {
				t.Fatalf("planSpeed = %v, want %s", got, tc.desc)
			}
		})
	}
}

// TestTrafficOverride: a non-nil Config.Traffic replaces the scripted NPCs;
// an empty slice means an open road even for blind perception.
func TestTrafficOverride(t *testing.T) {
	res, err := Run(Config{RouteNumber: 1, Traffic: []*NPC{}}, BlindPerception{}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Collided {
		t.Fatal("collision on an empty road")
	}
	if res.MinTTC != TTCCap {
		t.Fatalf("MinTTC %v on an empty road, want cap %v", res.MinTTC, TTCCap)
	}
	if res.MissedObstacleFrames != 0 || res.UnsafeSpeedFrames != 0 {
		t.Fatal("safety counters non-zero on an empty road")
	}

	// A single parked NPC straight ahead must produce a rear-end collision
	// when driving blind.
	route, _, err := Route(1)
	if err != nil {
		t.Fatal(err)
	}
	parked, err := NewNPC(1, route, 40, []SpeedPhase{{Until: 1e9, Speed: 0}})
	if err != nil {
		t.Fatal(err)
	}
	res, err = Run(Config{RouteNumber: 1, Traffic: []*NPC{parked}}, BlindPerception{}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Collided {
		t.Fatal("no collision with a parked obstacle while blind")
	}
	if res.MinTTC != 0 {
		t.Fatalf("MinTTC %v after a collision, want 0", res.MinTTC)
	}
	if res.UnsafeSpeedFrames == 0 {
		t.Fatal("no unsafe-speed exposure before a rear-end collision")
	}
}

// TestSafetySignals: perfect perception keeps the safety margins clean on
// every route, blind perception burns them — the signals the falsifier
// scores must separate the two regimes.
func TestSafetySignals(t *testing.T) {
	for route := 1; route <= NumRoutes; route++ {
		perfect, err := Run(Config{RouteNumber: route}, PerfectPerception{}, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if perfect.MinTTC <= 0 || perfect.MinTTC > TTCCap {
			t.Errorf("route %d: perfect MinTTC %v outside (0, %v]", route, perfect.MinTTC, TTCCap)
		}
		if perfect.MissedObstacleFrames != 0 {
			t.Errorf("route %d: perfect perception missed %d frames", route, perfect.MissedObstacleFrames)
		}
		blind, err := Run(Config{RouteNumber: route}, BlindPerception{}, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if blind.MinTTC != 0 {
			t.Errorf("route %d: blind MinTTC %v, want 0 (collides)", route, blind.MinTTC)
		}
		if blind.MissedObstacleFrames == 0 {
			t.Errorf("route %d: blind perception missed nothing", route)
		}
		if blind.MinTTC >= perfect.MinTTC {
			t.Errorf("route %d: blind MinTTC %v not below perfect %v", route, blind.MinTTC, perfect.MinTTC)
		}
	}
}

// TestValidateErrorMentionsField: the non-finite rejection must name the
// offending field so scenario search failures are debuggable.
func TestValidateErrorMentionsField(t *testing.T) {
	err := Config{RouteNumber: 1, CruiseSpeed: math.NaN()}.Validate()
	if err == nil || !strings.Contains(err.Error(), "CruiseSpeed") {
		t.Fatalf("error %v does not name CruiseSpeed", err)
	}
}
