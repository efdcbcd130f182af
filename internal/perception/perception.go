// Package perception implements the multi-version object-detection pipeline
// of the paper's CARLA case study (§VII): three detector versions whose
// error behaviour depends on their health state, a bounding-box voter with
// the safe-skip semantics of rules R.1–R.3, and the glue that exposes the
// whole stack to the driving simulator as a PerceptionSystem.
//
// The detector error model substitutes for a fault-injected YOLOv5: a
// healthy version occasionally misses or mislocalises an object; a
// compromised version (after PyTorchFI-style weight corruption) suffers
// sustained blindness windows and phantom detections. Crucially, a fraction
// of the compromised misses is *common mode* — driven by a shared per-object
// hardness draw — because correlated failures are what defeat majority
// voting and cause the collisions in Table VI.
package perception

import (
	"fmt"
	"math"

	"mvml/internal/core"
	"mvml/internal/drivesim"
	"mvml/internal/xrand"
)

// DetectorParams configures the per-version detection error model. The
// degradation profile of a compromised version is distance-dependent, as it
// is for a weight-corrupted YOLO: large nearby vehicles are still detected
// most of the time, while mid/far-range recall collapses; localisation noise
// grows with distance; and phantom detections appear. Miss draws are held
// for HazardWindow seconds so that blindness persists on the time scale that
// matters for braking.
type DetectorParams struct {
	// MissHealthy is the per-frame, per-object miss probability of a
	// healthy version.
	MissHealthy float64
	// MissCompromisedNear / MissCompromisedFar are the per-window miss
	// probabilities of a compromised version for objects nearer/farther
	// than NearRange.
	MissCompromisedNear, MissCompromisedFar float64
	// CommonMode is the fraction of far-range compromised misses shared
	// across all compromised versions (the correlated failure component).
	CommonMode float64
	// CommonModeNear is the shared fraction of near-range compromised
	// misses. It is what lets a compromised majority go blind *together*
	// at braking distance — the collision mechanism of Table VI.
	CommonModeNear float64
	// GhostCompromised is the per-window probability that a compromised
	// version hallucinates a phantom object ahead of the ego.
	GhostCompromised float64
	// NoiseHealthy is the healthy position-noise sigma (m);
	// NoiseCompromisedNear/Far apply to a compromised version below and
	// above NearRange.
	NoiseHealthy, NoiseCompromisedNear, NoiseCompromisedFar float64
	// NearRange is the distance (m) below which a compromised version
	// retains most of its recall.
	NearRange float64
	// HazardWindow is the duration (s) of a compromised blindness window.
	HazardWindow float64
	// MatchRadius is the association distance (m) under which two
	// detections count as the same object during voting.
	MatchRadius float64
}

// DefaultDetectorParams returns the calibration used by the Table VI/VII
// experiments.
func DefaultDetectorParams() DetectorParams {
	return DetectorParams{
		MissHealthy:          0.005,
		MissCompromisedNear:  0.52,
		MissCompromisedFar:   0.90,
		CommonMode:           0.70,
		CommonModeNear:       0.60,
		GhostCompromised:     0.60,
		NoiseHealthy:         0.12,
		NoiseCompromisedNear: 0.50,
		NoiseCompromisedFar:  2.0,
		NearRange:            14,
		HazardWindow:         1.2,
		MatchRadius:          1.6,
	}
}

// Validate reports parameter errors.
func (p DetectorParams) Validate() error {
	for name, v := range map[string]float64{
		"MissHealthy": p.MissHealthy, "MissCompromisedNear": p.MissCompromisedNear,
		"MissCompromisedFar": p.MissCompromisedFar,
		"CommonMode":         p.CommonMode, "CommonModeNear": p.CommonModeNear,
		"GhostCompromised": p.GhostCompromised,
	} {
		if v < 0 || v > 1 {
			return fmt.Errorf("perception: %s = %v outside [0,1]", name, v)
		}
	}
	if p.NoiseHealthy < 0 || p.NoiseCompromisedNear < 0 || p.NoiseCompromisedFar < 0 {
		return fmt.Errorf("perception: negative noise sigma")
	}
	if p.NearRange < 0 {
		return fmt.Errorf("perception: negative NearRange")
	}
	if p.HazardWindow <= 0 {
		return fmt.Errorf("perception: HazardWindow %v must be positive", p.HazardWindow)
	}
	if p.MatchRadius <= 0 {
		return fmt.Errorf("perception: MatchRadius %v must be positive", p.MatchRadius)
	}
	return nil
}

// Photometric-shift degradation ceilings: under a full shift (1.0) the
// healthy miss probability climbs toward photometricMissCeilingHealthy, the
// compromised miss probabilities toward photometricMissCeiling, and every
// localisation sigma grows by up to photometricNoiseGain times.
const (
	photometricMissCeilingHealthy = 0.40
	photometricMissCeiling        = 0.98
	photometricNoiseGain          = 3.0
)

// WithPhotometricShift returns a copy of the parameters degraded by a
// weather-like photometric shift in [0, 1] — the perception-side analogue of
// fog, glare or heavy rain (and of signs.Config.PhotometricShift on the
// classification side). A shift of 0 returns the parameters unchanged; a
// shift of 1 drags every miss probability toward its ceiling and triples the
// localisation noise. Values outside [0, 1] are clamped. Because the shift
// degrades ALL versions through the same parameters, it raises the
// correlated-failure pressure that defeats majority voting — exactly the
// regime the scenario falsifier searches.
func (p DetectorParams) WithPhotometricShift(shift float64) DetectorParams {
	if !(shift > 0) { // also catches NaN
		return p
	}
	if shift > 1 {
		shift = 1
	}
	toward := func(v, ceiling float64) float64 {
		if v >= ceiling {
			return v
		}
		return v + shift*(ceiling-v)
	}
	p.MissHealthy = toward(p.MissHealthy, photometricMissCeilingHealthy)
	p.MissCompromisedNear = toward(p.MissCompromisedNear, photometricMissCeiling)
	p.MissCompromisedFar = toward(p.MissCompromisedFar, photometricMissCeiling)
	gain := 1 + shift*(photometricNoiseGain-1)
	p.NoiseHealthy *= gain
	p.NoiseCompromisedNear *= gain
	p.NoiseCompromisedFar *= gain
	return p
}

// DetectorVersion is one perception version. It implements
// core.Version[drivesim.Scene, []drivesim.Detection].
type DetectorVersion struct {
	name        string
	params      DetectorParams
	seed        uint64
	compromised bool
}

var _ core.Version[drivesim.Scene, []drivesim.Detection] = (*DetectorVersion)(nil)

// NewDetectorVersion builds a named detector version. Versions of the same
// ensemble must share the seed so their common-mode draws coincide.
func NewDetectorVersion(name string, params DetectorParams, seed uint64) (*DetectorVersion, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &DetectorVersion{name: name, params: params, seed: seed}, nil
}

// Name implements core.Version.
func (v *DetectorVersion) Name() string { return v.name }

// Compromise implements core.Version: detection quality degrades to the
// compromised error rates, as a weight-corrupted YOLO would.
func (v *DetectorVersion) Compromise() error {
	v.compromised = true
	return nil
}

// Restore implements core.Version: rejuvenation reloads pristine behaviour.
func (v *DetectorVersion) Restore() error {
	v.compromised = false
	return nil
}

// Infer implements core.Version: it returns the detections for one frame.
// All randomness is a pure function of (seed, version, frame/window,
// object), so re-running a scenario is reproducible.
func (v *DetectorVersion) Infer(scene drivesim.Scene) ([]drivesim.Detection, error) {
	p := v.params
	window := uint64(scene.Time / p.HazardWindow)
	out := make([]drivesim.Detection, 0, len(scene.Objects))
	for _, obj := range scene.Objects {
		key := uint64(obj.ID)*1_000_003 + window
		dist := obj.Pos.Dist(scene.Ego.Pos)
		near := dist <= p.NearRange
		if v.compromised {
			miss := p.MissCompromisedFar
			if near {
				miss = p.MissCompromisedNear
			}
			// Persistent blindness with a common-mode component shared
			// by every compromised version; the shared fraction is
			// larger at far range, where all models face the same hard
			// conditions, and smaller near, where diverse models fail
			// more independently.
			cm := p.CommonMode
			if near {
				cm = p.CommonModeNear
			}
			common := cm * miss
			private := miss
			if common > 0 && common < 1 {
				private = (miss - common) / (1 - common)
			}
			if common > 0 {
				shared := xrand.New(v.seed).Split("hard", key)
				if shared.Float64() < common {
					continue
				}
			}
			priv := xrand.New(v.seed).Split(v.name+"/miss", key)
			if priv.Float64() < private {
				continue
			}
		} else {
			frameKey := uint64(scene.Frame)*1_000_003 + uint64(obj.ID)
			priv := xrand.New(v.seed).Split(v.name+"/hmiss", frameKey)
			if priv.Float64() < p.MissHealthy {
				continue
			}
		}
		sigma := p.NoiseHealthy
		if v.compromised {
			if near {
				sigma = p.NoiseCompromisedNear
			} else {
				sigma = p.NoiseCompromisedFar
			}
		}
		noise := xrand.New(v.seed).Split(v.name+"/pos", uint64(scene.Frame)*1_000_003+uint64(obj.ID))
		out = append(out, drivesim.Detection{Pos: drivesim.Vec2{
			X: obj.Pos.X + noise.Normal(0, sigma),
			Y: obj.Pos.Y + noise.Normal(0, sigma),
		}})
	}
	// Phantom detections of a compromised version: one stable ghost ahead
	// of the ego for the duration of a window.
	if v.compromised && p.GhostCompromised > 0 {
		g := xrand.New(v.seed).Split(v.name+"/ghost", window)
		if g.Float64() < p.GhostCompromised {
			// False boxes land anywhere in the field of view; only a
			// small fraction happens to sit in the ego's lane corridor.
			dist := 8 + 30*g.Float64()
			lat := g.Uniform(-12, 12)
			dir := drivesim.Vec2{X: math.Cos(scene.Ego.Heading), Y: math.Sin(scene.Ego.Heading)}
			perp := drivesim.Vec2{X: -dir.Y, Y: dir.X}
			pos := scene.Ego.Pos.Add(dir.Scale(dist)).Add(perp.Scale(lat))
			out = append(out, drivesim.Detection{Pos: pos})
		}
	}
	return out, nil
}

// NewListVoter returns the list-level majority voter the pipeline uses by
// default: rules R.1–R.3 applied to the versions' detection lists as
// wholes, with two lists "equal/similar" (§IV) when they have the same
// cardinality and every detection matches within matchRadius. A version
// whose corrupted output diverges anywhere therefore cannot contribute to a
// majority at all — so a compromised pair almost always forces a safe skip
// rather than an agreed-wrong output, while two healthy versions agree and
// outvote the garbage. This matches the paper's framing ("the voter
// produces a perception output if at least two models agree on the
// result"). DetectionVoter below is the object-level quorum alternative,
// used by the voting-scheme ablation.
func NewListVoter(matchRadius float64) *core.MajorityVoter[[]drivesim.Detection] {
	return &core.MajorityVoter[[]drivesim.Detection]{
		Eq: func(a, b []drivesim.Detection) bool {
			return listsAgree(a, b, matchRadius)
		},
	}
}

// DetectionVoter applies the paper's rules R.1–R.3 to object-detection
// output at the object level:
//
//   - R.3 — one functional version: its list is trusted.
//   - R.2 — two functional versions: the lists must fully agree (same
//     cardinality, every detection matched within MatchRadius); any
//     divergence is a safe skip.
//   - R.1 — three (or more) versions: every detection cluster supported by
//     at least two versions is confirmed and output. If no cluster reaches
//     the quorum, a majority of empty lists confirms "clear"; otherwise the
//     versions are irreconcilable and the voter safely skips.
//
// Note the failure mode this preserves: two versions that agree on a WRONG
// perception — both blind to the same vehicle, or both reporting the same
// phantom — outvote the correct minority, exactly as in the paper's fault
// model.
type DetectionVoter struct {
	// MatchRadius is the association distance (m).
	MatchRadius float64
}

var _ core.Voter[[]drivesim.Detection] = (*DetectionVoter)(nil)

// NewDetectionVoter returns a DetectionVoter with the given association
// radius.
func NewDetectionVoter(matchRadius float64) *DetectionVoter {
	return &DetectionVoter{MatchRadius: matchRadius}
}

// Vote implements core.Voter.
func (v *DetectionVoter) Vote(proposals []core.Proposal[[]drivesim.Detection]) core.Decision[[]drivesim.Detection] {
	n := len(proposals)
	switch n {
	case 0:
		return core.Decision[[]drivesim.Detection]{Skipped: true, Reason: "no functional modules"}
	case 1:
		return core.Decision[[]drivesim.Detection]{
			Value: proposals[0].Value, Agreeing: 1, Proposals: 1,
		}
	case 2:
		if listsAgree(proposals[0].Value, proposals[1].Value, v.MatchRadius) {
			return core.Decision[[]drivesim.Detection]{
				Value: proposals[0].Value, Agreeing: 2, Proposals: 2,
			}
		}
		return core.Decision[[]drivesim.Detection]{
			Skipped: true, Reason: "2-version divergence", Proposals: 2,
		}
	}

	// R.1 with object-level quorum.
	type cluster struct {
		centroid drivesim.Vec2
		members  int
		versions map[int]bool
	}
	var clusters []*cluster
	emptyLists := 0
	for vi, prop := range proposals {
		if len(prop.Value) == 0 {
			emptyLists++
		}
		for _, det := range prop.Value {
			var best *cluster
			bestDist := v.MatchRadius
			for _, c := range clusters {
				if c.versions[vi] {
					continue // one contribution per version per object
				}
				if d := det.Pos.Dist(c.centroid); d <= bestDist {
					best, bestDist = c, d
				}
			}
			if best == nil {
				clusters = append(clusters, &cluster{
					centroid: det.Pos,
					members:  1,
					versions: map[int]bool{vi: true},
				})
				continue
			}
			// Running centroid update.
			w := float64(best.members)
			best.centroid = drivesim.Vec2{
				X: (best.centroid.X*w + det.Pos.X) / (w + 1),
				Y: (best.centroid.Y*w + det.Pos.Y) / (w + 1),
			}
			best.members++
			best.versions[vi] = true
		}
	}
	const quorum = 2
	var confirmed []drivesim.Detection
	for _, c := range clusters {
		if len(c.versions) >= quorum {
			confirmed = append(confirmed, drivesim.Detection{Pos: c.centroid})
		}
	}
	switch {
	case len(confirmed) > 0:
		return core.Decision[[]drivesim.Detection]{
			Value: confirmed, Agreeing: quorum, Proposals: n,
		}
	case emptyLists >= quorum:
		// A majority reports a clear scene — possibly a common-mode
		// blindness outvoting a correct minority.
		return core.Decision[[]drivesim.Detection]{
			Value: nil, Agreeing: emptyLists, Proposals: n,
		}
	default:
		return core.Decision[[]drivesim.Detection]{
			Skipped: true, Reason: "no object-level quorum", Proposals: n,
		}
	}
}

// listsAgree greedily matches detections between two lists.
func listsAgree(a, b []drivesim.Detection, radius float64) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
	for _, da := range a {
		found := false
		for j, db := range b {
			if used[j] {
				continue
			}
			if da.Pos.Dist(db.Pos) <= radius {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Pipeline exposes a multi-version perception system to the driving
// simulator.
type Pipeline struct {
	sys *core.System[drivesim.Scene, []drivesim.Detection]
}

var _ drivesim.PerceptionSystem = (*Pipeline)(nil)

// NewPipeline builds an n-version detection pipeline (n >= 1) with the
// given fault/rejuvenation configuration and the default object-level
// quorum voter.
func NewPipeline(n int, det DetectorParams, sysCfg core.Config, seed uint64, rng *xrand.Rand) (*Pipeline, error) {
	return NewPipelineWithVoter(n, det, sysCfg, NewDetectionVoter(det.MatchRadius), seed, rng)
}

// NewPipelineWithVoter builds a pipeline around a caller-chosen voter —
// used by the voting-scheme ablation (object-level quorum vs. list-level
// majority vs. unanimity).
func NewPipelineWithVoter(n int, det DetectorParams, sysCfg core.Config,
	voter core.Voter[[]drivesim.Detection], seed uint64, rng *xrand.Rand) (*Pipeline, error) {
	if n < 1 {
		return nil, fmt.Errorf("perception: need at least 1 version, got %d", n)
	}
	if voter == nil {
		return nil, fmt.Errorf("perception: nil voter")
	}
	versions := make([]core.Version[drivesim.Scene, []drivesim.Detection], 0, n)
	// The three version names mirror the paper's YOLOv5 variants.
	names := []string{"yolite-s", "yolite-m", "yolite-l"}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("yolite-%d", i+1)
		if i < len(names) {
			name = names[i]
		}
		v, err := NewDetectorVersion(name, det, seed)
		if err != nil {
			return nil, err
		}
		versions = append(versions, v)
	}
	sys, err := core.NewSystem[drivesim.Scene, []drivesim.Detection](
		versions, voter, sysCfg, rng)
	if err != nil {
		return nil, err
	}
	return &Pipeline{sys: sys}, nil
}

// Perceive implements drivesim.PerceptionSystem.
func (p *Pipeline) Perceive(t float64, scene drivesim.Scene) (drivesim.PerceptionResult, error) {
	d, _, err := p.sys.Infer(t, scene)
	if err != nil {
		return drivesim.PerceptionResult{}, err
	}
	return drivesim.PerceptionResult{Skipped: d.Skipped, Objects: d.Value}, nil
}

// FunctionalModules implements drivesim.PerceptionSystem.
func (p *Pipeline) FunctionalModules() int {
	count := 0
	for _, m := range p.sys.Modules() {
		if m.State().Functional() {
			count++
		}
	}
	return count
}

// NewPipelineFromSystem wraps an externally constructed multi-version
// system (e.g. one whose versions are trained NN detectors) as a
// drivesim.PerceptionSystem.
func NewPipelineFromSystem(sys *core.System[drivesim.Scene, []drivesim.Detection]) *Pipeline {
	return &Pipeline{sys: sys}
}

// RejuvenatingModules implements drivesim.PerceptionSystem.
func (p *Pipeline) RejuvenatingModules() int {
	count := 0
	for _, m := range p.sys.Modules() {
		if m.State() == core.Rejuvenating {
			count++
		}
	}
	return count
}
