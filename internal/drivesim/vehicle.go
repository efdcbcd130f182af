package drivesim

import (
	"fmt"
	"math"
)

// VehicleState is the pose and motion of a vehicle.
type VehicleState struct {
	Pos     Vec2
	Heading float64 // radians
	Speed   float64 // m/s
}

// Object is a ground-truth actor visible to the perception sensors.
type Object struct {
	ID      int
	Pos     Vec2
	Speed   float64
	Heading float64
}

// Detection is one perceived object (position in world frame).
type Detection struct {
	Pos Vec2
}

// Scene is the sensor snapshot handed to the perception system each frame.
type Scene struct {
	Frame   int
	Time    float64
	Ego     VehicleState
	Objects []Object // ground-truth objects within sensor range
}

// PerceptionResult is the voted perception output for one frame.
type PerceptionResult struct {
	// Skipped reports that the voter declined to output this frame; the
	// planner must hold its previous command (§VII-A).
	Skipped bool
	// Objects are the agreed detections (empty and meaningful when not
	// skipped).
	Objects []Detection
}

// PerceptionSystem abstracts the (multi-version) perception pipeline so the
// simulator does not depend on its implementation.
type PerceptionSystem interface {
	// Perceive processes one frame at simulated time t.
	Perceive(t float64, scene Scene) (PerceptionResult, error)
	// FunctionalModules reports how many perception versions are
	// currently answering (drives the compute-cost account).
	FunctionalModules() int
	// RejuvenatingModules reports how many versions are being reloaded
	// this frame; reloading stalls the accelerator (cost account).
	RejuvenatingModules() int
}

// SpeedPhase is one segment of an NPC speed profile.
type SpeedPhase struct {
	// Until is the end time (seconds) of this phase.
	Until float64
	// Speed is the target speed during the phase.
	Speed float64
}

// NPC is a scripted traffic vehicle following a path with a piecewise
// speed profile. The final phase's speed holds forever.
type NPC struct {
	ID      int
	Radius  float64
	path    *Path
	s       float64 // arc length along path
	speed   float64
	profile []SpeedPhase
}

// NewNPC creates a scripted vehicle at the given start arc length.
func NewNPC(id int, path *Path, startS float64, profile []SpeedPhase) (*NPC, error) {
	if path == nil {
		return nil, fmt.Errorf("drivesim: NPC %d has no path", id)
	}
	if startS < 0 || startS > path.Length() {
		return nil, fmt.Errorf("drivesim: NPC %d start %v outside path [0, %v]", id, startS, path.Length())
	}
	if len(profile) == 0 {
		return nil, fmt.Errorf("drivesim: NPC %d has no speed profile", id)
	}
	for i, ph := range profile {
		if ph.Speed < 0 {
			return nil, fmt.Errorf("drivesim: NPC %d phase %d has negative speed", id, i)
		}
		// NaN sails past the negative-speed check (every comparison with
		// NaN is false) and would silently poison the NPC's position for
		// the rest of the run; Inf survives it outright.
		if math.IsNaN(ph.Speed) || math.IsInf(ph.Speed, 0) {
			return nil, fmt.Errorf("drivesim: NPC %d phase %d has non-finite speed %v", id, i, ph.Speed)
		}
		if math.IsNaN(ph.Until) {
			return nil, fmt.Errorf("drivesim: NPC %d phase %d has NaN end time", id, i)
		}
		if i > 0 && ph.Until <= profile[i-1].Until {
			return nil, fmt.Errorf("drivesim: NPC %d phases not strictly increasing", id)
		}
	}
	return &NPC{ID: id, Radius: 1.3, path: path, s: startS, profile: profile}, nil
}

// targetSpeed returns the profile speed at time t.
func (n *NPC) targetSpeed(t float64) float64 {
	for _, ph := range n.profile {
		if t < ph.Until {
			return ph.Speed
		}
	}
	return n.profile[len(n.profile)-1].Speed
}

// maxNPCAccel bounds NPC acceleration/braking (m/s²).
const maxNPCAccel = 4.0

// Step advances the NPC by dt seconds.
func (n *NPC) Step(t, dt float64) {
	target := n.targetSpeed(t)
	if n.speed < target {
		n.speed += maxNPCAccel * dt
		if n.speed > target {
			n.speed = target
		}
	} else if n.speed > target {
		n.speed -= maxNPCAccel * dt
		if n.speed < target {
			n.speed = target
		}
	}
	n.s += n.speed * dt
	if n.s > n.path.Length() {
		n.s = n.path.Length()
		n.speed = 0
	}
}

// State returns the NPC's current pose.
func (n *NPC) State() VehicleState {
	return VehicleState{
		Pos:     n.path.PointAt(n.s),
		Heading: n.path.HeadingAt(n.s),
		Speed:   n.speed,
	}
}

// Object returns the NPC as a ground-truth perception object.
func (n *NPC) Object() Object {
	st := n.State()
	return Object{ID: n.ID, Pos: st.Pos, Speed: st.Speed, Heading: st.Heading}
}
