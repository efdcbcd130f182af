package scenario

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mvml/internal/xrand"
)

// sampleValid is the shared test scenario: every optional feature present.
func sampleValid() Scenario {
	return Scenario{
		Version:   DSLVersion,
		Name:      "kitchen-sink",
		Route:     3,
		Seed:      42,
		DT:        0.05,
		MaxFrames: 400,
		Cruise:    14,
		NPCs: []NPCSpec{
			{StartFrac: 0.2, Radius: 1.5, Phases: []PhaseSpec{{Until: 5, Speed: 6}, {Until: 30, Speed: 0}}},
			{StartFrac: 0.6, Phases: []PhaseSpec{{Until: 40, Speed: 3}}},
		},
		Occlusions: []OcclusionSpec{{S0: 0.1, S1: 0.4, HalfWidth: 3, T0: 2, T1: 9}},
		Perception: PerceptionSpec{
			Versions: 3, Seed: 9, Photometric: 0.25, MissScale: 1.5,
			NoiseScale: 1, Ghost: 0.3, CommonMode: 0.7, MatchRadius: 1.6,
		},
		Faults: []FaultEvent{
			{Time: 1, Version: 0, Action: ActionCompromise, Kind: "bit-flip"},
			{Time: 4, Version: 1, Action: ActionCompromise},
			{Time: 8, Version: 0, Action: ActionRestore},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	b1 := mustEncodeEntry(t, Entry{Scenario: sampleValid(), Note: "kitchen sink"})
	e, err := DecodeEntry(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("canonical encoding not a fixpoint:\n%s\nvs\n%s", b1, b2)
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name   string
		mangle func(Scenario) Scenario
		substr string
	}{
		{"wrong version", func(s Scenario) Scenario { s.Version = 99; return s }, "version"},
		{"route zero", func(s Scenario) Scenario { s.Route = 0; return s }, "route"},
		{"route high", func(s Scenario) Scenario { s.Route = 9; return s }, "route"},
		{"negative dt", func(s Scenario) Scenario { s.DT = -0.01; return s }, "dt"},
		{"huge dt", func(s Scenario) Scenario { s.DT = 2; return s }, "dt"},
		{"frames cap", func(s Scenario) Scenario { s.MaxFrames = MaxFrameCap + 1; return s }, "max_frames"},
		{"cruise cap", func(s Scenario) Scenario { s.Cruise = 99; return s }, "cruise"},
		{"nil npcs", func(s Scenario) Scenario { s.NPCs = nil; return s }, "npcs"},
		{"start frac", func(s Scenario) Scenario { s.NPCs[0].StartFrac = 1.5; return s }, "start_frac"},
		{"no phases", func(s Scenario) Scenario { s.NPCs[0].Phases = nil; return s }, "phases"},
		{"phase order", func(s Scenario) Scenario {
			s.NPCs[0].Phases = []PhaseSpec{{Until: 5, Speed: 1}, {Until: 5, Speed: 2}}
			return s
		}, "increasing"},
		{"npc speed cap", func(s Scenario) Scenario { s.NPCs[0].Phases[0].Speed = 99; return s }, "speed"},
		{"occlusion span", func(s Scenario) Scenario { s.Occlusions[0].S1 = s.Occlusions[0].S0; return s }, "arc window"},
		{"occlusion time", func(s Scenario) Scenario { s.Occlusions[0].T1 = s.Occlusions[0].T0; return s }, "time window"},
		{"versions", func(s Scenario) Scenario { s.Perception.Versions = 4; return s }, "versions"},
		{"photometric", func(s Scenario) Scenario { s.Perception.Photometric = 1.5; return s }, "photometric"},
		{"match radius", func(s Scenario) Scenario { s.Perception.MatchRadius = 0; return s }, "match_radius"},
		{"fault order", func(s Scenario) Scenario {
			s.Faults[0].Time = 100
			return s
		}, "sorted"},
		{"fault version", func(s Scenario) Scenario { s.Faults[0].Version = 3; return s }, "version"},
		{"fault action", func(s Scenario) Scenario { s.Faults[0].Action = "melt"; return s }, "action"},
		{"fault kind", func(s Scenario) Scenario { s.Faults[0].Kind = "rowhammer"; return s }, "kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.mangle(sampleValid())
			err := s.Validate()
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), tc.substr) {
				t.Fatalf("error %q does not mention %q", err, tc.substr)
			}
		})
	}
}

// TestValidateRejectsNonFinite: NaN and Inf are unrepresentable in JSON, so
// a scenario carrying one could never round-trip through the corpus —
// Validate must refuse them everywhere a float lives.
func TestValidateRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, mangle := range map[string]func(*Scenario){
			"dt":          func(s *Scenario) { s.DT = bad },
			"cruise":      func(s *Scenario) { s.Cruise = bad },
			"start_frac":  func(s *Scenario) { s.NPCs[0].StartFrac = bad },
			"phase until": func(s *Scenario) { s.NPCs[0].Phases[0].Until = bad },
			"phase speed": func(s *Scenario) { s.NPCs[0].Phases[0].Speed = bad },
			"occlusion":   func(s *Scenario) { s.Occlusions[0].HalfWidth = bad },
			"photometric": func(s *Scenario) { s.Perception.Photometric = bad },
			"fault time":  func(s *Scenario) { s.Faults[0].Time = bad },
		} {
			s := sampleValid()
			mangle(&s)
			if err := s.Validate(); err == nil {
				t.Errorf("%s = %v passed validation", name, bad)
			}
		}
	}
}

func TestDecodeRejectsUnknownFieldsAndTrailer(t *testing.T) {
	for _, doc := range []string{`{"scenario": {"version": 1, "turbo": true}}`, `{"scenario": {"version": 1}, "turbo": true}`} {
		if _, err := DecodeEntry([]byte(doc)); err == nil {
			t.Fatalf("unknown field accepted: %s", doc)
		}
	}
	trailer := append(mustEncodeEntry(t, Entry{Scenario: sampleValid()}), []byte("{}")...)
	if _, err := DecodeEntry(trailer); err == nil {
		t.Fatal("trailing document accepted")
	}
}

// TestCloneDoesNotAlias: a mutated clone must never write through to the
// original's schedule slices — the hill-climber depends on this to keep its
// accepted scenario intact across rejected candidates.
func TestCloneDoesNotAlias(t *testing.T) {
	s := sampleValid()
	c := Clone(s)
	c.NPCs[0].Phases[0].Speed = 99
	c.NPCs[0].StartFrac = 0.99
	c.Occlusions[0].T0 = 99
	c.Faults[0].Time = 99
	if s.NPCs[0].Phases[0].Speed == 99 || s.NPCs[0].StartFrac == 0.99 ||
		s.Occlusions[0].T0 == 99 || s.Faults[0].Time == 99 {
		t.Fatal("Clone shares memory with the original")
	}
}

// TestSampleMutateAlwaysValid: the falsifier's generators must stay inside
// the DSL — every sampled scenario and every mutation chain is valid.
func TestSampleMutateAlwaysValid(t *testing.T) {
	sp := DefaultSpace()
	rng := xrand.New(123)
	for i := 0; i < 50; i++ {
		s := Sample(sp, rng.Split("sample", uint64(i)))
		if err := s.Validate(); err != nil {
			t.Fatalf("sample %d invalid: %v", i, err)
		}
		mrng := rng.Split("mutate", uint64(i))
		for j := 0; j < 20; j++ {
			s = Mutate(sp, s, mrng)
			if err := s.Validate(); err != nil {
				t.Fatalf("sample %d mutation %d invalid: %v\n%s", i, j, err, s.MustEncode())
			}
		}
	}
}

// TestEvaluateDeterministic: Evaluate is a pure function of the scenario.
func TestEvaluateDeterministic(t *testing.T) {
	s := sampleValid()
	a, err := Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("two evaluations diverged:\n%+v\n%+v", a, b)
	}
	if a.TotalFrames < 1 || a.TotalFrames > s.MaxFrames {
		t.Fatalf("frames %d outside 1..%d", a.TotalFrames, s.MaxFrames)
	}
}

// TestOcclusionHidesObstacle: an occlusion box covering the hazard corridor
// must degrade what perception reports — here a parked lead under a
// permanent occlusion is invisible, so a perfect-knob ensemble drives into
// it, while the unoccluded twin stops in time.
func TestOcclusionHidesObstacle(t *testing.T) {
	base := Scenario{
		Version: DSLVersion, Route: 1, Seed: 5, DT: 0.05, MaxFrames: 700, Cruise: 13,
		NPCs: []NPCSpec{{StartFrac: 0.35, Phases: []PhaseSpec{{Until: 300, Speed: 0}}}},
		Perception: PerceptionSpec{
			Versions: 3, Seed: 5, MissScale: 1, NoiseScale: 1, MatchRadius: 1.6,
		},
	}
	clear, err := Evaluate(base)
	if err != nil {
		t.Fatal(err)
	}
	occluded := Clone(base)
	occluded.Occlusions = []OcclusionSpec{{S0: 0, S1: 1, HalfWidth: 10, T0: 0, T1: 299}}
	hidden, err := Evaluate(occluded)
	if err != nil {
		t.Fatal(err)
	}
	if clear.Collided {
		t.Fatalf("healthy ensemble hit a visible parked car: %+v", clear)
	}
	if !hidden.Collided {
		t.Fatalf("fully occluded parked car not hit: %+v", hidden)
	}
	if hidden.MissedObstacleFrames == 0 {
		t.Fatal("occluded hazard produced no missed-obstacle frames")
	}
}

// TestFaultScheduleCompromises: a scheduled 2-of-3 compromise with a high
// common mode must produce a worse outcome than the fault-free twin, and a
// restore event must be honoured (the channel applies events in order).
func TestFaultScheduleCompromises(t *testing.T) {
	base := Scenario{
		Version: DSLVersion, Route: 2, Seed: 11, DT: 0.05, MaxFrames: 700, Cruise: 13,
		NPCs: []NPCSpec{{StartFrac: 0.4, Phases: []PhaseSpec{{Until: 300, Speed: 0}}}},
		Perception: PerceptionSpec{
			Versions: 3, Seed: 11, MissScale: 1, NoiseScale: 1,
			CommonMode: 1, MatchRadius: 1.6,
		},
	}
	healthy, err := Evaluate(base)
	if err != nil {
		t.Fatal(err)
	}
	faulty := Clone(base)
	faulty.Faults = []FaultEvent{
		{Time: 0, Version: 0, Action: ActionCompromise, Kind: "weight-value"},
		{Time: 0, Version: 1, Action: ActionCompromise, Kind: "bit-flip"},
	}
	broken, err := Evaluate(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Collided {
		t.Fatalf("fault-free ensemble collided: %+v", healthy)
	}
	if broken.Margin >= healthy.Margin {
		t.Fatalf("compromising 2/3 versions did not shrink the margin: %v -> %v",
			healthy.Margin, broken.Margin)
	}
	// Restoring both versions immediately must behave like no fault at all.
	restored := Clone(faulty)
	restored.Faults = append(restored.Faults,
		FaultEvent{Time: 0.01, Version: 0, Action: ActionRestore},
		FaultEvent{Time: 0.01, Version: 1, Action: ActionRestore})
	fixed, err := Evaluate(restored)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Collided {
		t.Fatalf("rejuvenated ensemble still collided: %+v", fixed)
	}
}
