package perception

import (
	"fmt"
	"math"

	"mvml/internal/core"
	"mvml/internal/drivesim"
	"mvml/internal/faultinject"
	"mvml/internal/nn"
	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

// The NN-in-the-loop detector: instead of the statistical error model of
// DetectorVersion, NNDetectorVersion runs a real YOLite network over an
// ego-centric occupancy raster. Compromise injects a PyTorchFI-style weight
// fault (the paper uses random_weight_inj with range (-100, 300) on its
// YOLOv5 variants) and rejuvenation reloads the pristine weights — the same
// mechanics as the paper's CARLA deployment, at raster rather than camera
// resolution.

// Raster geometry: the YOLite input covers RasterAhead metres in front of
// the ego and ±RasterHalfWidth metres laterally.
const (
	RasterAhead     = 48.0
	RasterHalfWidth = 24.0
)

// Rasterize renders the scene's ground-truth objects into a 1-channel
// ego-centric occupancy raster for the YOLite detector, with additive sensor
// noise drawn from rng (pass nil for a clean raster).
func Rasterize(scene drivesim.Scene, noise float64, rng *xrand.Rand) *tensor.Tensor {
	img := tensor.New(1, nn.YOLiteInputSize, nn.YOLiteInputSize)
	sin, cos := math.Sincos(scene.Ego.Heading)
	for _, obj := range scene.Objects {
		rel := obj.Pos.Sub(scene.Ego.Pos)
		// Rotate into the ego frame: x ahead, y left.
		ahead := rel.X*cos + rel.Y*sin
		lateral := -rel.X*sin + rel.Y*cos
		if ahead < 0 || ahead >= RasterAhead || lateral < -RasterHalfWidth || lateral >= RasterHalfWidth {
			continue
		}
		px := ahead / RasterAhead * nn.YOLiteInputSize
		py := (lateral + RasterHalfWidth) / (2 * RasterHalfWidth) * nn.YOLiteInputSize
		// Paint a small soft blob so sub-cell position is recoverable.
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				ix, iy := int(px)+dx, int(py)+dy
				if ix < 0 || ix >= nn.YOLiteInputSize || iy < 0 || iy >= nn.YOLiteInputSize {
					continue
				}
				d2 := (float64(ix)+0.5-px)*(float64(ix)+0.5-px) + (float64(iy)+0.5-py)*(float64(iy)+0.5-py)
				v := float32(math.Exp(-d2 / 0.8))
				idx := iy*nn.YOLiteInputSize + ix
				if v > img.Data[idx] {
					img.Data[idx] = v
				}
			}
		}
	}
	if rng != nil && noise > 0 {
		for i := range img.Data {
			img.Data[i] += float32(rng.Normal(0, noise))
			if img.Data[i] < 0 {
				img.Data[i] = 0
			}
		}
	}
	return img
}

// rasterTarget builds the YOLite grid target for a scene.
func rasterTarget(scene drivesim.Scene) *tensor.Tensor {
	target := tensor.New(nn.YOLiteChannels, nn.YOLiteGrid, nn.YOLiteGrid)
	sin, cos := math.Sincos(scene.Ego.Heading)
	cellPx := float64(nn.YOLiteInputSize) / nn.YOLiteGrid
	cells := nn.YOLiteGrid * nn.YOLiteGrid
	for _, obj := range scene.Objects {
		rel := obj.Pos.Sub(scene.Ego.Pos)
		ahead := rel.X*cos + rel.Y*sin
		lateral := -rel.X*sin + rel.Y*cos
		if ahead < 0 || ahead >= RasterAhead || lateral < -RasterHalfWidth || lateral >= RasterHalfWidth {
			continue
		}
		px := ahead / RasterAhead * nn.YOLiteInputSize
		py := (lateral + RasterHalfWidth) / (2 * RasterHalfWidth) * nn.YOLiteInputSize
		cx := int(px / cellPx)
		cy := int(py / cellPx)
		c := cy*nn.YOLiteGrid + cx
		target.Data[c] = 1
		target.Data[cells+c] = float32(px/cellPx - float64(cx))
		target.Data[2*cells+c] = float32(py/cellPx - float64(cy))
	}
	return target
}

// randomScene places n objects uniformly in the raster's field of view
// around a stationary ego at the origin.
func randomScene(n int, rng *xrand.Rand) drivesim.Scene {
	scene := drivesim.Scene{Ego: drivesim.VehicleState{}}
	for i := 0; i < n; i++ {
		scene.Objects = append(scene.Objects, drivesim.Object{
			ID:  i + 1,
			Pos: drivesim.Vec2{X: rng.Uniform(2, RasterAhead-2), Y: rng.Uniform(-RasterHalfWidth+2, RasterHalfWidth-2)},
		})
	}
	return scene
}

// TrainYOLite trains a fresh YOLite detector on procedurally generated
// scenes (self-supervised from the rasteriser) and returns the network.
func TrainYOLite(steps int, rng *xrand.Rand) (*nn.Network, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("perception: non-positive training steps %d", steps)
	}
	net := nn.NewYOLite(rng.Split("init", 0))
	opt := nn.NewSGD(0.01, 0.9)
	data := rng.Split("data", 0)
	const batchSize = 16
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			opt.LR *= 0.3
		}
		batch := make([]nn.YOLiteSample, 0, batchSize)
		for i := 0; i < batchSize; i++ {
			scene := randomScene(data.Intn(4), data)
			batch = append(batch, nn.YOLiteSample{
				Raster: Rasterize(scene, 0.02, data),
				Target: rasterTarget(scene),
			})
		}
		if _, err := nn.TrainYOLiteBatch(net, batch, opt); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// NNDetectorVersion runs a trained YOLite network as one perception version.
type NNDetectorVersion struct {
	name      string
	net       *nn.Network
	ar        *nn.InferenceArena
	pristine  [][]float32
	threshold float64
	// Injection parameters for Compromise (the paper's YOLO experiment
	// uses random_weight_inj with range (-100, 300)).
	injectLayer          int
	injectMin, injectMax float64
	injectRng            *xrand.Rand
	noise                float64
	noiseRng             *xrand.Rand
}

var _ core.Version[drivesim.Scene, []drivesim.Detection] = (*NNDetectorVersion)(nil)

// NewNNDetectorVersion wraps a trained YOLite network. Each version should
// receive its own independently trained network (that is the version
// diversity) and its own rng streams.
func NewNNDetectorVersion(name string, net *nn.Network, rng *xrand.Rand) (*NNDetectorVersion, error) {
	if net == nil {
		return nil, fmt.Errorf("perception: nil network")
	}
	if rng == nil {
		return nil, fmt.Errorf("perception: nil rng")
	}
	return &NNDetectorVersion{
		name:        name,
		net:         net,
		ar:          nn.NewInferenceArena(),
		pristine:    net.CloneWeights(),
		threshold:   0.5,
		injectLayer: 1,
		injectMin:   -100,
		injectMax:   300,
		injectRng:   rng.Split("inject", 0),
		noise:       0.02,
		noiseRng:    rng.Split("noise", 0),
	}, nil
}

// Name implements core.Version.
func (v *NNDetectorVersion) Name() string { return v.name }

// Infer implements core.Version: rasterise, run the network, decode grid
// detections back to world coordinates.
func (v *NNDetectorVersion) Infer(scene drivesim.Scene) ([]drivesim.Detection, error) {
	raster := Rasterize(scene, v.noise, v.noiseRng)
	out, err := forwardOne(v.net, v.ar, raster)
	if err != nil {
		return nil, fmt.Errorf("perception: YOLite forward: %w", err)
	}
	grid, err := nn.DecodeYOLite(out, v.threshold)
	if err != nil {
		return nil, err
	}
	sin, cos := math.Sincos(scene.Ego.Heading)
	dets := make([]drivesim.Detection, 0, len(grid))
	for _, g := range grid {
		ahead := g.X / nn.YOLiteInputSize * RasterAhead
		lateral := g.Y/nn.YOLiteInputSize*(2*RasterHalfWidth) - RasterHalfWidth
		dets = append(dets, drivesim.Detection{Pos: drivesim.Vec2{
			X: scene.Ego.Pos.X + ahead*cos - lateral*sin,
			Y: scene.Ego.Pos.Y + ahead*sin + lateral*cos,
		}})
	}
	return dets, nil
}

// forwardOne runs one sample through net as a batch of one on ar and returns
// the output, owned by ar until its next use. Compromise and Restore write
// the weights in place without telling the network, so the packed weight
// panels are invalidated on every call.
func forwardOne(net *nn.Network, ar *nn.InferenceArena, x *tensor.Tensor) (*tensor.Tensor, error) {
	ar.InvalidateWeights()
	batch := &tensor.Tensor{Shape: append([]int{1}, x.Shape...), Data: x.Data}
	return net.ForwardBatchArena(batch, ar)
}

// Compromise implements core.Version by injecting a large random weight
// fault into the network.
func (v *NNDetectorVersion) Compromise() error {
	_, err := faultinject.RandomWeightInj(v.net, v.injectLayer, v.injectMin, v.injectMax, v.injectRng)
	if err != nil {
		return fmt.Errorf("perception: compromising %s: %w", v.name, err)
	}
	return nil
}

// Restore implements core.Version by reloading the pristine weights.
func (v *NNDetectorVersion) Restore() error {
	return v.net.RestoreWeights(v.pristine)
}
