// Package scenario is the adversarial scenario-search subsystem: a compact,
// versioned, deterministic DSL over everything that makes a driving run hard
// — traffic density and behaviour, occlusion boxes, sensor-noise and
// photometric-shift knobs, fault-injection schedules, route selection — plus
// a falsifier that drives thousands of sampled scenarios through the
// deterministic parallel runner, scores each by safety margin, hill-climbs
// toward violations, shrinks what it finds to locally-minimal
// counterexamples, and banks them in a corpus replayed by `go test` forever
// after. The paper's Tables VI–VIII replay eight fixed routes; this package
// *searches* the scenario space instead (the VerifAI programme), and turns
// every failure it finds into a permanent regression test.
package scenario

import (
	"encoding/json"
	"fmt"
	"math"

	"mvml/internal/drivesim"
	"mvml/internal/faultinject"
)

// DSLVersion is the current scenario-encoding version. Decode rejects files
// from a different major version so corpus entries can never be silently
// reinterpreted.
const DSLVersion = 1

// Hard bounds of the scenario space. Validation enforces them, the sampler
// stays inside them, and the fuzzers confirm every in-bounds scenario runs.
const (
	MaxNPCs       = 6
	MaxPhases     = 6
	MaxOcclusions = 4
	MaxFaults     = 8
	MaxFrameCap   = 5000
	MaxCruise     = 40.0  // m/s
	MaxNPCSpeed   = 30.0  // m/s
	MaxEventTime  = 300.0 // s
)

// Scenario is one falsifiable driving situation. All fields are plain data
// with deterministic canonical JSON; Evaluate turns a scenario into metrics
// reproducibly, bit-for-bit, at any worker count.
type Scenario struct {
	// Version is the DSL version (DSLVersion).
	Version int `json:"version"`
	// Name is an optional human label; it does not affect execution.
	Name string `json:"name,omitempty"`
	// Route selects the town route, 1..drivesim.NumRoutes.
	Route int `json:"route"`
	// Seed drives the simulation's nuisance randomness (cost jitter) and
	// the multi-version system stream.
	Seed uint64 `json:"seed"`
	// DT is the frame period in seconds; 0 means the drivesim default.
	DT float64 `json:"dt,omitempty"`
	// MaxFrames bounds the run (0 = drivesim's route-derived default).
	MaxFrames int `json:"max_frames,omitempty"`
	// Cruise is the ego's desired speed in m/s (0 = drivesim default).
	Cruise float64 `json:"cruise,omitempty"`
	// NPCs is the traffic schedule. Always non-nil in a valid scenario;
	// an empty list is an open road.
	NPCs []NPCSpec `json:"npcs"`
	// Occlusions hide ground-truth objects from the sensors inside
	// route-relative boxes during time windows.
	Occlusions []OcclusionSpec `json:"occlusions,omitempty"`
	// Perception configures the multi-version detection ensemble.
	Perception PerceptionSpec `json:"perception"`
	// Faults is the compromise/restore schedule applied to ensemble
	// versions at simulated times.
	Faults []FaultEvent `json:"faults,omitempty"`
}

// NPCSpec is one scripted traffic vehicle.
type NPCSpec struct {
	// StartFrac spawns the vehicle at this fraction of the route length,
	// in [0, 1].
	StartFrac float64 `json:"start_frac"`
	// Radius is the collision radius in metres (0 = drivesim default).
	Radius float64 `json:"radius,omitempty"`
	// Phases is the piecewise speed profile (1..MaxPhases entries,
	// strictly increasing end times).
	Phases []PhaseSpec `json:"phases"`
}

// PhaseSpec mirrors drivesim.SpeedPhase in the DSL.
type PhaseSpec struct {
	// Until is the phase end time in seconds.
	Until float64 `json:"until"`
	// Speed is the target speed in m/s.
	Speed float64 `json:"speed"`
}

// OcclusionSpec hides objects from the sensor channel: any ground-truth
// object whose route projection falls in [S0, S1] (fractions of the route
// length) within HalfWidth metres of the route, during [T0, T1) seconds, is
// removed from the scene handed to perception. Ground truth — and therefore
// the safety scoring — still sees it: an occluded hazard is exactly the
// "hard tail" case a perception monitor must survive.
type OcclusionSpec struct {
	S0        float64 `json:"s0"`
	S1        float64 `json:"s1"`
	HalfWidth float64 `json:"half_width"`
	T0        float64 `json:"t0"`
	T1        float64 `json:"t1"`
}

// PerceptionSpec configures the detection ensemble. All knobs are explicit
// (no omitted-means-default ambiguity) so canonical encodings are stable.
type PerceptionSpec struct {
	// Versions is the ensemble size, 1..3.
	Versions int `json:"versions"`
	// Seed drives the shared detector randomness (the common-mode draws).
	Seed uint64 `json:"seed"`
	// Photometric in [0, 1] applies DetectorParams.WithPhotometricShift —
	// the weather knob.
	Photometric float64 `json:"photometric"`
	// MissScale in [0.25, 4] multiplies the compromised miss
	// probabilities (clamped to 0.98).
	MissScale float64 `json:"miss_scale"`
	// NoiseScale in [0.25, 4] multiplies every localisation sigma.
	NoiseScale float64 `json:"noise_scale"`
	// Ghost in [0, 1] is the compromised phantom-detection probability.
	Ghost float64 `json:"ghost"`
	// CommonMode in [0, 1] sets both common-mode fractions — the
	// correlated-failure dial that defeats majority voting.
	CommonMode float64 `json:"common_mode"`
	// MatchRadius in [0.5, 4] is the voter association distance in
	// metres.
	MatchRadius float64 `json:"match_radius"`
}

// Fault actions.
const (
	ActionCompromise = "compromise"
	ActionRestore    = "restore"
)

// FaultEvent compromises or restores one ensemble version at a simulated
// time. Kind optionally names the faultinject fault model (a Kind.String
// label) that an NN-backed pipeline would inject; the error-model pipeline
// treats every kind as behavioural compromise.
type FaultEvent struct {
	Time    float64 `json:"time"`
	Version int     `json:"version"`
	Action  string  `json:"action"`
	Kind    string  `json:"kind,omitempty"`
}

func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Validate reports whether the scenario is inside the DSL's space. Every
// valid scenario is runnable: Evaluate on a validated scenario cannot fail.
func (s Scenario) Validate() error {
	if s.Version != DSLVersion {
		return fmt.Errorf("scenario: DSL version %d, this build speaks %d", s.Version, DSLVersion)
	}
	if s.Route < 1 || s.Route > drivesim.NumRoutes {
		return fmt.Errorf("scenario: route %d outside 1..%d", s.Route, drivesim.NumRoutes)
	}
	if s.DT != 0 && !(finite(s.DT) && s.DT > 0 && s.DT <= 0.5) {
		return fmt.Errorf("scenario: dt %v outside (0, 0.5]", s.DT)
	}
	if s.MaxFrames < 0 || s.MaxFrames > MaxFrameCap {
		return fmt.Errorf("scenario: max_frames %d outside 0..%d", s.MaxFrames, MaxFrameCap)
	}
	if s.Cruise != 0 && !(finite(s.Cruise) && s.Cruise > 0 && s.Cruise <= MaxCruise) {
		return fmt.Errorf("scenario: cruise %v outside (0, %v]", s.Cruise, MaxCruise)
	}
	if s.NPCs == nil {
		return fmt.Errorf("scenario: npcs must be present (an empty list is an open road)")
	}
	if len(s.NPCs) > MaxNPCs {
		return fmt.Errorf("scenario: %d NPCs above cap %d", len(s.NPCs), MaxNPCs)
	}
	for i, n := range s.NPCs {
		if err := n.validate(); err != nil {
			return fmt.Errorf("scenario: npc %d: %w", i, err)
		}
	}
	if len(s.Occlusions) > MaxOcclusions {
		return fmt.Errorf("scenario: %d occlusions above cap %d", len(s.Occlusions), MaxOcclusions)
	}
	for i, o := range s.Occlusions {
		if err := o.validate(); err != nil {
			return fmt.Errorf("scenario: occlusion %d: %w", i, err)
		}
	}
	if err := s.Perception.validate(); err != nil {
		return fmt.Errorf("scenario: perception: %w", err)
	}
	if len(s.Faults) > MaxFaults {
		return fmt.Errorf("scenario: %d fault events above cap %d", len(s.Faults), MaxFaults)
	}
	prev := math.Inf(-1)
	for i, f := range s.Faults {
		if !finite(f.Time) || f.Time < 0 || f.Time > MaxEventTime {
			return fmt.Errorf("scenario: fault %d time %v outside [0, %v]", i, f.Time, MaxEventTime)
		}
		if f.Time < prev {
			return fmt.Errorf("scenario: fault %d time %v before predecessor %v (schedule must be sorted)", i, f.Time, prev)
		}
		prev = f.Time
		if f.Version < 0 || f.Version >= s.Perception.Versions {
			return fmt.Errorf("scenario: fault %d targets version %d outside 0..%d",
				i, f.Version, s.Perception.Versions-1)
		}
		if f.Action != ActionCompromise && f.Action != ActionRestore {
			return fmt.Errorf("scenario: fault %d has unknown action %q", i, f.Action)
		}
		if f.Kind != "" {
			if _, err := faultinject.ParseKind(f.Kind); err != nil {
				return fmt.Errorf("scenario: fault %d: %w", i, err)
			}
		}
	}
	return nil
}

func (n NPCSpec) validate() error {
	if !finite(n.StartFrac) || n.StartFrac < 0 || n.StartFrac > 1 {
		return fmt.Errorf("start_frac %v outside [0, 1]", n.StartFrac)
	}
	if n.Radius != 0 && !(finite(n.Radius) && n.Radius >= 0.5 && n.Radius <= 3) {
		return fmt.Errorf("radius %v outside [0.5, 3]", n.Radius)
	}
	if len(n.Phases) == 0 || len(n.Phases) > MaxPhases {
		return fmt.Errorf("%d phases outside 1..%d", len(n.Phases), MaxPhases)
	}
	prev := 0.0
	for i, ph := range n.Phases {
		if !finite(ph.Until) || ph.Until <= prev || ph.Until > MaxEventTime {
			return fmt.Errorf("phase %d until %v not strictly increasing within (0, %v]", i, ph.Until, MaxEventTime)
		}
		prev = ph.Until
		if !finite(ph.Speed) || ph.Speed < 0 || ph.Speed > MaxNPCSpeed {
			return fmt.Errorf("phase %d speed %v outside [0, %v]", i, ph.Speed, MaxNPCSpeed)
		}
	}
	return nil
}

func (o OcclusionSpec) validate() error {
	if !finite(o.S0) || !finite(o.S1) || o.S0 < 0 || o.S1 > 1 || o.S0 >= o.S1 {
		return fmt.Errorf("arc window [%v, %v] not inside [0, 1]", o.S0, o.S1)
	}
	if !finite(o.HalfWidth) || o.HalfWidth < 0.5 || o.HalfWidth > 10 {
		return fmt.Errorf("half_width %v outside [0.5, 10]", o.HalfWidth)
	}
	if !finite(o.T0) || !finite(o.T1) || o.T0 < 0 || o.T1 > MaxEventTime || o.T0 >= o.T1 {
		return fmt.Errorf("time window [%v, %v) not inside [0, %v]", o.T0, o.T1, MaxEventTime)
	}
	return nil
}

func (p PerceptionSpec) validate() error {
	if p.Versions < 1 || p.Versions > 3 {
		return fmt.Errorf("versions %d outside 1..3", p.Versions)
	}
	check := func(name string, v, lo, hi float64) error {
		if !finite(v) || v < lo || v > hi {
			return fmt.Errorf("%s %v outside [%v, %v]", name, v, lo, hi)
		}
		return nil
	}
	for _, c := range []error{
		check("photometric", p.Photometric, 0, 1),
		check("miss_scale", p.MissScale, 0.25, 4),
		check("noise_scale", p.NoiseScale, 0.25, 4),
		check("ghost", p.Ghost, 0, 1),
		check("common_mode", p.CommonMode, 0, 1),
		check("match_radius", p.MatchRadius, 0.5, 4),
	} {
		if c != nil {
			return c
		}
	}
	return nil
}

// Encode renders the canonical byte form: two-space-indented JSON with a
// trailing newline and struct-ordered keys. Encode∘Decode is the identity on
// canonical bytes — the round-trip property the fuzzer enforces — and the
// corpus stores exactly these bytes, so `git diff` on a counterexample is
// always a semantic diff.
func (s Scenario) Encode() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// MustEncode is Encode for scenarios already known valid (sampler/mutator
// output); it panics on the programming error of an invalid scenario.
func (s Scenario) MustEncode() []byte {
	data, err := s.Encode()
	if err != nil {
		panic(err)
	}
	return data
}
