package drivesim

import (
	"errors"
	"fmt"
	"math"

	"mvml/internal/xrand"
)

// Config parameterises one simulation run.
type Config struct {
	// RouteNumber selects routes #1–#8 (Table VI numbering).
	RouteNumber int
	// DT is the frame period in seconds (default 0.05 → 20 FPS of
	// simulated sensor frames).
	DT float64
	// MaxFrames bounds the run; 0 derives it from the route length
	// (roughly the paper's ≈30 s, 600–750 frames).
	MaxFrames int
	// CruiseSpeed is the ego's desired speed (default 12 m/s).
	CruiseSpeed float64
	// SensorRange limits perception to nearby objects (default 45 m).
	SensorRange float64
	// Traffic, when non-nil, replaces the route's scripted NPCs; an empty
	// non-nil slice runs the route with no traffic at all. The scenario
	// falsifier uses this to drive searched traffic schedules through the
	// simulator. NPCs are stateful: callers must pass freshly constructed
	// vehicles to each Run.
	Traffic []*NPC
	// DetectionMatchRadius is the association distance (m) under which a
	// perception detection counts as covering a ground-truth object for
	// the missed-obstacle safety signal (default 2.0).
	DetectionMatchRadius float64
}

func (c *Config) fillDefaults() {
	if c.DT == 0 {
		c.DT = 0.05
	}
	if c.CruiseSpeed == 0 {
		c.CruiseSpeed = 12
	}
	if c.SensorRange == 0 {
		c.SensorRange = 45
	}
	if c.DetectionMatchRadius == 0 {
		c.DetectionMatchRadius = 2.0
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.RouteNumber < 1 || c.RouteNumber > NumRoutes {
		return fmt.Errorf("drivesim: route %d outside 1..%d", c.RouteNumber, NumRoutes)
	}
	if c.DT < 0 || c.CruiseSpeed < 0 || c.SensorRange < 0 || c.MaxFrames < 0 ||
		c.DetectionMatchRadius < 0 {
		return errors.New("drivesim: negative config value")
	}
	// A NaN slips past every < comparison and an Inf survives them, then
	// poisons the frame-count derivation (int conversion of a non-finite
	// float is platform-defined) and every kinematic update downstream —
	// reject both here rather than running a silently meaningless scenario.
	for name, v := range map[string]float64{
		"DT": c.DT, "CruiseSpeed": c.CruiseSpeed, "SensorRange": c.SensorRange,
		"DetectionMatchRadius": c.DetectionMatchRadius,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("drivesim: non-finite %s %v", name, v)
		}
	}
	return nil
}

// Result summarises one run with the paper's Table VI metrics plus the
// overhead proxies of Table VIII.
type Result struct {
	Route string // town name
	// TotalFrames is the run length in frames.
	TotalFrames int
	// CollisionFrames counts frames in which the ego overlaps an NPC.
	CollisionFrames int
	// FirstCollisionFrame is the frame of the first contact, or -1.
	FirstCollisionFrame int
	// Collided reports whether any collision occurred.
	Collided bool
	// SkippedFrames counts frames on which the perception voter skipped.
	SkippedFrames int
	// Completed reports whether the ego reached the end of the route.
	Completed bool

	// Per-step safety signals (see frameSafety). They are pure
	// observations of ground truth versus the perception output: computing
	// them consumes no rng draws and alters no decision.

	// MinTTC is the minimum time-to-collision (s) against any in-corridor
	// lead object across the run, capped at TTCCap; 0 once any collision
	// occurs.
	MinTTC float64
	// MissedObstacleFrames counts non-skipped frames on which an
	// in-corridor ground-truth object ahead of the ego had no perception
	// detection within DetectionMatchRadius.
	MissedObstacleFrames int
	// UnsafeSpeedFrames counts frames on which the ego moved faster than
	// the maximum-braking stopping envelope for the nearest in-corridor
	// obstacle — i.e. frames on which even a perfect emergency brake could
	// no longer prevent contact.
	UnsafeSpeedFrames int

	// Overhead proxies (see costAccount).
	AvgFPS     float64
	AvgCPUUtil float64
	AvgGPUUtil float64
}

// SkipRatio is the fraction of frames the voter skipped.
func (r *Result) SkipRatio() float64 {
	if r.TotalFrames == 0 {
		return 0
	}
	return float64(r.SkippedFrames) / float64(r.TotalFrames)
}

// Ego dynamics parameters.
const (
	egoRadius    = 1.4 // m, collision circle
	egoMaxAccel  = 3.0 // m/s²
	egoMaxBrake  = 8.0 // m/s²
	wheelBase    = 2.8 // m, bicycle model
	lookahead    = 7.0 // m, pure-pursuit target distance
	maxSteer     = 0.9 // rad
	hardStopGap  = 6.0 // m, emergency braking threshold
	corridorHalf = 2.2 // m, lateral half-width considered "in my lane"
)

// costAccount models the per-frame perception compute cost, reproducing the
// overhead structure of Table VIII: the versions execute concurrently on the
// accelerator, so the frame time is a base cost plus the slowest version
// plus a small serialisation overhead per extra active version; utilisation
// proxies scale with the average number of active versions.
type costAccount struct {
	frames        int
	sumFrameMS    float64
	sumFunctional float64
}

// Per-frame cost model constants (milliseconds); calibrated so a
// single-version system lands near the paper's 5.85 FPS and a three-version
// one near 4.27 FPS on the reference hardware.
const (
	costBaseMS       = 41.0
	costVersionMS    = 130.0
	costExtraMS      = 33.0 // serialisation overhead per extra active version
	costVoterMS      = 1.5
	costReloadMS     = 60.0 // module reload stall while rejuvenating
	cpuBasePct       = 3.45
	cpuPerVersionPct = 0.175
	gpuBasePct       = 24.5
	gpuPerVersionPct = 3.5
)

func (a *costAccount) record(functional, rejuvenating int, jitterMS float64) {
	a.frames++
	frame := costBaseMS + costVoterMS + jitterMS
	if functional > 0 {
		frame += costVersionMS + costExtraMS*float64(functional-1)
	}
	frame += costReloadMS * float64(rejuvenating)
	a.sumFrameMS += frame
	a.sumFunctional += float64(functional)
}

func (a *costAccount) fps() float64 {
	if a.frames == 0 {
		return 0
	}
	return 1000 / (a.sumFrameMS / float64(a.frames))
}

func (a *costAccount) cpuPct() float64 {
	if a.frames == 0 {
		return 0
	}
	return cpuBasePct + cpuPerVersionPct*a.sumFunctional/float64(a.frames)
}

func (a *costAccount) gpuPct() float64 {
	if a.frames == 0 {
		return 0
	}
	return gpuBasePct + gpuPerVersionPct*a.sumFunctional/float64(a.frames)
}

// Run executes one driving scenario with the given perception system. The
// rng drives scenario noise only (cost jitter); all perception randomness
// lives inside the PerceptionSystem.
func Run(cfg Config, percept PerceptionSystem, rng *xrand.Rand) (*Result, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if percept == nil {
		return nil, errors.New("drivesim: nil perception system")
	}
	if rng == nil {
		return nil, errors.New("drivesim: nil rng")
	}
	route, townName, err := Route(cfg.RouteNumber)
	if err != nil {
		return nil, err
	}
	npcs := cfg.Traffic
	if npcs == nil {
		npcs, err = scenarioNPCs(cfg.RouteNumber, route)
		if err != nil {
			return nil, err
		}
	}
	maxFrames := cfg.MaxFrames
	if maxFrames == 0 {
		// Long enough for a well-perceiving ego to reach the jam tail at
		// ~55% of the route (including ~12 s of scripted stop delays)
		// plus a short queued phase; runs end here, as the paper's ≈30 s
		// scenarios do.
		maxFrames = int((0.55*route.Length()/cfg.CruiseSpeed + 16) / cfg.DT)
	}

	ego := VehicleState{Pos: route.PointAt(0), Heading: route.HeadingAt(0)}
	res := &Result{Route: townName, FirstCollisionFrame: -1, MinTTC: TTCCap}
	account := &costAccount{}

	// The planner holds the last commanded target speed across skipped
	// frames (§VII-A: driving properties remain unchanged on a skip).
	targetSpeed := cfg.CruiseSpeed

	for frame := 0; frame < maxFrames; frame++ {
		t := float64(frame) * cfg.DT

		// Advance traffic.
		for _, n := range npcs {
			n.Step(t, cfg.DT)
		}

		// Sensor snapshot: objects within range.
		scene := Scene{Frame: frame, Time: t, Ego: ego}
		for _, n := range npcs {
			obj := n.Object()
			if obj.Pos.Dist(ego.Pos) <= cfg.SensorRange {
				scene.Objects = append(scene.Objects, obj)
			}
		}

		out, err := percept.Perceive(t, scene)
		if err != nil {
			return nil, fmt.Errorf("drivesim: perception at frame %d: %w", frame, err)
		}
		account.record(percept.FunctionalModules(), percept.RejuvenatingModules(), rng.Uniform(0, 4))

		if out.Skipped {
			res.SkippedFrames++
			// Hold the previous command.
		} else {
			targetSpeed = planSpeed(cfg, route, ego, out.Objects)
		}

		// Per-step safety signals against ground truth (the frame's scene,
		// not the perception output): minimum TTC, stopping-envelope
		// violations and undetected in-corridor obstacles.
		ttc, missed, unsafe := frameSafety(route, ego, npcs, out, cfg)
		if ttc < res.MinTTC {
			res.MinTTC = ttc
		}
		if missed {
			res.MissedObstacleFrames++
		}
		if unsafe {
			res.UnsafeSpeedFrames++
		}

		ego = stepEgo(route, ego, targetSpeed, cfg.DT)

		// Collision check with simple inelastic response: contact pins
		// the ego to the obstacle's speed while overlapping.
		colliding := false
		for _, n := range npcs {
			if ego.Pos.Dist(n.State().Pos) < egoRadius+n.Radius {
				colliding = true
				if ego.Speed > n.State().Speed {
					ego.Speed = n.State().Speed
				}
			}
		}
		if colliding {
			res.CollisionFrames++
			res.MinTTC = 0
			if !res.Collided {
				res.Collided = true
				res.FirstCollisionFrame = frame
			}
		}

		res.TotalFrames++
		if route.NearestArcLength(ego.Pos) >= route.Length()-2 {
			res.Completed = true
			break
		}
	}
	res.AvgFPS = account.fps()
	res.AvgCPUUtil = account.cpuPct()
	res.AvgGPUUtil = account.gpuPct()
	return res, nil
}

// TTCCap bounds the reported time-to-collision: approaches slower than this
// are not a hazard, and a finite cap keeps Result JSON-encodable (a run that
// never closes on anything reports MinTTC == TTCCap, not +Inf).
const TTCCap = 60.0

// frameSafety computes one frame's safety signals from ground truth: the
// smallest time-to-collision against any in-corridor object ahead, whether
// any such object within sensor range went undetected by the (non-skipped)
// perception output, and whether the ego's speed exceeds the maximum-braking
// stopping envelope for the nearest obstacle.
func frameSafety(route *Path, ego VehicleState, npcs []*NPC, out PerceptionResult, cfg Config) (ttc float64, missed, unsafe bool) {
	ttc = TTCCap
	egoS := route.NearestArcLength(ego.Pos)
	for _, n := range npcs {
		st := n.State()
		objS := route.NearestArcLength(st.Pos)
		if st.Pos.Dist(route.PointAt(objS)) > corridorHalf {
			continue
		}
		ahead := objS - egoS
		// Range-gate on the same Euclidean distance the sensor snapshot
		// uses, not on arc length: on a curve an object can be closer as
		// the crow flies than along the route, and the probe must only
		// blame perception for objects the sensor could actually see.
		if ahead <= 0 || st.Pos.Dist(ego.Pos) > cfg.SensorRange {
			continue
		}
		gap := ahead - (egoRadius + n.Radius)
		if gap < 0 {
			gap = 0
		}
		if closing := ego.Speed - st.Speed; closing > 0 {
			if t := gap / closing; t < ttc {
				ttc = t
			}
		}
		// Stopping envelope: v² > 2·a_max·gap means contact is already
		// unavoidable under full braking.
		if ego.Speed*ego.Speed > 2*egoMaxBrake*gap {
			unsafe = true
		}
		if !out.Skipped {
			covered := false
			for _, d := range out.Objects {
				if d.Pos.Dist(st.Pos) <= cfg.DetectionMatchRadius {
					covered = true
					break
				}
			}
			if !covered {
				missed = true
			}
		}
	}
	return ttc, missed, unsafe
}

// planSpeed decides the ego target speed from the perceived obstacle set:
// cruise unless something occupies the lane corridor ahead, then follow at a
// safe gap or brake hard when very close.
func planSpeed(cfg Config, route *Path, ego VehicleState, objects []Detection) float64 {
	// Route-relative hazard test: an obstacle matters when it sits on the
	// route corridor ahead of the ego's own arc-length position. This
	// handles curves, where a straight heading-relative projection would
	// let a lead vehicle slip out of the corridor mid-turn.
	egoS := route.NearestArcLength(ego.Pos)
	nearest := math.Inf(1)
	for _, d := range objects {
		// A detection with a non-finite coordinate (a degenerate upstream
		// perception value) carries no usable position: NaN would slide
		// through the corridor test below because every comparison against
		// NaN is false. Drop it explicitly instead of letting it silently
		// shadow or fabricate a hazard.
		if math.IsNaN(d.Pos.X) || math.IsNaN(d.Pos.Y) ||
			math.IsInf(d.Pos.X, 0) || math.IsInf(d.Pos.Y, 0) {
			continue
		}
		objS := route.NearestArcLength(d.Pos)
		lateral := d.Pos.Dist(route.PointAt(objS))
		if lateral > corridorHalf {
			continue
		}
		ahead := objS - egoS
		if ahead <= 0 || ahead > cfg.SensorRange {
			continue
		}
		if ahead < nearest {
			nearest = ahead
		}
	}
	if nearest <= hardStopGap {
		return 0
	}
	// Kinematic braking-distance rule: cap the speed so the ego can stop
	// before closing to hardStopGap at a comfortable deceleration.
	const comfortBrake = 2.8 // m/s², well under egoMaxBrake for margin
	limit := math.Sqrt(2 * comfortBrake * (nearest - hardStopGap))
	if limit < cfg.CruiseSpeed {
		return limit
	}
	return cfg.CruiseSpeed
}

// stepEgo advances the ego one frame: pure-pursuit steering toward the
// route, bounded acceleration toward the target speed.
func stepEgo(route *Path, ego VehicleState, targetSpeed, dt float64) VehicleState {
	// Longitudinal control.
	switch {
	case ego.Speed < targetSpeed:
		ego.Speed += egoMaxAccel * dt
		if ego.Speed > targetSpeed {
			ego.Speed = targetSpeed
		}
	case ego.Speed > targetSpeed:
		ego.Speed -= egoMaxBrake * dt
		if ego.Speed < targetSpeed {
			ego.Speed = targetSpeed
		}
	}

	// Pure pursuit: steer toward a point `lookahead` metres down the route.
	s := route.NearestArcLength(ego.Pos)
	target := route.PointAt(s + lookahead)
	desired := target.Sub(ego.Pos).Heading()
	diff := normAngle(desired - ego.Heading)
	steer := diff
	if steer > maxSteer {
		steer = maxSteer
	} else if steer < -maxSteer {
		steer = -maxSteer
	}
	// Kinematic bicycle model.
	ego.Heading = normAngle(ego.Heading + ego.Speed/wheelBase*math.Tan(steer)*dt*0.5)
	ego.Pos = ego.Pos.Add(Vec2{math.Cos(ego.Heading), math.Sin(ego.Heading)}.Scale(ego.Speed * dt))
	return ego
}

func normAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a < -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// scenarioNPCs builds the scripted traffic for a route: a lead vehicle that
// slows, stops once, drives on and finally parks on the route (the tail of a
// traffic jam — the persistent rear-end hazard), plus a second slower
// vehicle further along that also stops temporarily. Phase timings vary per
// route so the eight scenarios differ.
func scenarioNPCs(routeNumber int, route *Path) ([]*NPC, error) {
	shift := float64(routeNumber) * 0.7
	// The lead stops twice (hazards at ~8–15 s and ~16–22 s) and finally
	// parks at ~55% of the route — the tail of a traffic jam. The cruise
	// phase length is solved so the park position is route-relative,
	// keeping the ego's queue exposure comparable across routes.
	parkS := 0.55 * route.Length()
	// The eight evaluation routes are all well over 120 m, but this builder
	// also runs against caller-supplied paths (tests, scenario search):
	// clamp the spawn points into the path instead of handing NewNPC an
	// out-of-range arc length on a short route.
	leadStart := 35.0
	if leadStart > 0.3*route.Length() {
		leadStart = 0.3 * route.Length()
	}
	cruiseDist := parkS - leadStart - 7*(4+shift) - 8*6
	parkT := (22 + shift) + cruiseDist/8
	if parkT < 23+shift {
		parkT = 23 + shift
	}
	lead, err := NewNPC(1, route, leadStart, []SpeedPhase{
		{Until: 4 + shift, Speed: 7},
		{Until: 10 + shift, Speed: 2}, // first slowdown
		{Until: 16 + shift, Speed: 8},
		{Until: 22 + shift, Speed: 3}, // second slowdown
		{Until: parkT, Speed: 8},
		{Until: 1e9, Speed: 0}, // parks on the route
	})
	if err != nil {
		return nil, err
	}
	farS := 90.0
	if farS > route.Length()-20 {
		farS = route.Length() - 20
	}
	if farS < leadStart {
		// Short route: keep the second vehicle ahead of the lead rather
		// than spawning it at a negative arc length (which NewNPC rejects)
		// or behind the hazard it is meant to back up.
		farS = (leadStart + route.Length()) / 2
	}
	slow, err := NewNPC(2, route, farS, []SpeedPhase{
		{Until: 12 + shift, Speed: 5},
		{Until: 18 + shift, Speed: 2},
		{Until: 1e9, Speed: 6},
	})
	if err != nil {
		return nil, err
	}
	return []*NPC{lead, slow}, nil
}

// PerfectPerception returns the ground truth every frame — the ideal
// baseline used by tests and the overhead experiment's upper bound.
type PerfectPerception struct{}

var _ PerceptionSystem = (*PerfectPerception)(nil)

// Perceive implements PerceptionSystem.
func (PerfectPerception) Perceive(_ float64, scene Scene) (PerceptionResult, error) {
	out := PerceptionResult{Objects: make([]Detection, 0, len(scene.Objects))}
	for _, o := range scene.Objects {
		out.Objects = append(out.Objects, Detection{Pos: o.Pos})
	}
	return out, nil
}

// FunctionalModules implements PerceptionSystem.
func (PerfectPerception) FunctionalModules() int { return 1 }

// RejuvenatingModules implements PerceptionSystem.
func (PerfectPerception) RejuvenatingModules() int { return 0 }
