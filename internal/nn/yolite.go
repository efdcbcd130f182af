package nn

import (
	"fmt"
	"math"

	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

// YOLite is a miniature single-stage grid detector in the spirit of the
// YOLOv5 variants the paper deploys in CARLA: one forward pass over a
// coarse ego-centric sensor raster predicts, for every cell of a GxG grid,
// an objectness logit and the (dx, dy) offset of the object inside the
// cell. It exists so the perception pipeline can also be exercised with a
// real network in the loop (weight faults injected by faultinject, weights
// reloaded by rejuvenation), complementing the statistical detector model
// used for the large Table VI sweeps.
const (
	// YOLiteInputSize is the side length of the square input raster.
	YOLiteInputSize = 16
	// YOLiteGrid is the detection grid resolution (GxG cells).
	YOLiteGrid = 4
	// YOLiteChannels is the per-cell prediction layout: objectness logit,
	// x offset, y offset.
	YOLiteChannels = 3
)

// NewYOLite builds the detector network: three stride/pool stages reduce
// the 16x16 raster to the 4x4 grid, and a 1x1 convolution head emits
// (objectness, dx, dy) per cell.
func NewYOLite(r *xrand.Rand) *Network {
	return &Network{
		Name: "yolite",
		Layers: []Layer{
			NewConv2D("conv1", 1, 8, 3, 1, 1, r.Split("yolite-conv1", 0)),
			NewReLU("relu1"),
			NewConv2D("conv2", 8, 16, 3, 2, 1, r.Split("yolite-conv2", 0)), // 16 -> 8
			NewReLU("relu2"),
			NewConv2D("conv3", 16, 16, 3, 2, 1, r.Split("yolite-conv3", 0)), // 8 -> 4
			NewReLU("relu3"),
			NewConv2D("head", 16, YOLiteChannels, 1, 1, 0, r.Split("yolite-head", 0)),
		},
	}
}

// GridTarget is the training target for one raster: per-cell objectness and
// offsets, shape (YOLiteChannels, YOLiteGrid, YOLiteGrid) with objectness in
// {0,1} and offsets in [0,1] (meaningful only for occupied cells).
type GridTarget = tensor.Tensor

// Sigmoid returns 1/(1+e^-x).
func Sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// YOLiteLoss computes the detection loss for one sample and the gradient
// w.r.t. the network output: binary cross-entropy on the objectness channel
// plus squared-error on the offsets of occupied cells (weighted by
// offsetWeight). Both pred and target must have the YOLite output shape.
func YOLiteLoss(pred, target *tensor.Tensor) (float64, *tensor.Tensor, error) {
	grad := tensor.New(pred.Shape...)
	loss, err := yoliteLossInto(pred, target, grad)
	if err != nil {
		return 0, nil, err
	}
	return loss, grad, nil
}

// yoliteLossInto is YOLiteLoss writing the gradient into grad, a tensor of
// the prediction's length.
func yoliteLossInto(pred, target, grad *tensor.Tensor) (float64, error) {
	wantLen := YOLiteChannels * YOLiteGrid * YOLiteGrid
	if pred.Len() != wantLen || target.Len() != wantLen {
		return 0, fmt.Errorf("nn: YOLite loss wants %d elements, got pred %d target %d",
			wantLen, pred.Len(), target.Len())
	}
	const offsetWeight = 2.0
	cells := YOLiteGrid * YOLiteGrid
	clear(grad.Data)
	var loss float64
	for c := 0; c < cells; c++ {
		logit := pred.Data[c]
		p := Sigmoid(logit)
		y := target.Data[c]
		// BCE with logits; clamp for numerical safety.
		pc := math.Min(math.Max(float64(p), 1e-7), 1-1e-7)
		loss += -(float64(y)*math.Log(pc) + (1-float64(y))*math.Log(1-pc))
		grad.Data[c] = p - y // d(BCE)/d(logit)
		if y > 0.5 {
			// Offset regression for occupied cells only.
			for ch := 1; ch < YOLiteChannels; ch++ {
				idx := ch*cells + c
				diff := pred.Data[idx] - target.Data[idx]
				loss += offsetWeight * float64(diff) * float64(diff)
				grad.Data[idx] = 2 * offsetWeight * diff
			}
		}
	}
	return loss, nil
}

// GridDetection is one decoded detection in raster coordinates (pixels of
// the input raster, origin at its top-left corner).
type GridDetection struct {
	X, Y       float64
	Confidence float64
}

// DecodeYOLite converts a network output into detections: cells whose
// objectness probability exceeds threshold yield one detection at the cell
// origin plus the predicted offset (offsets are clamped to the cell).
func DecodeYOLite(pred *tensor.Tensor, threshold float64) ([]GridDetection, error) {
	wantLen := YOLiteChannels * YOLiteGrid * YOLiteGrid
	if pred.Len() != wantLen {
		return nil, fmt.Errorf("nn: DecodeYOLite wants %d elements, got %d", wantLen, pred.Len())
	}
	cells := YOLiteGrid * YOLiteGrid
	cellSize := float64(YOLiteInputSize) / YOLiteGrid
	var out []GridDetection
	for c := 0; c < cells; c++ {
		conf := float64(Sigmoid(pred.Data[c]))
		if conf < threshold {
			continue
		}
		cy := c / YOLiteGrid
		cx := c % YOLiteGrid
		dx := clamp01(float64(pred.Data[cells+c]))
		dy := clamp01(float64(pred.Data[2*cells+c]))
		out = append(out, GridDetection{
			X:          (float64(cx) + dx) * cellSize,
			Y:          (float64(cy) + dy) * cellSize,
			Confidence: conf,
		})
	}
	return out, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// YOLiteSample is one training example: raster plus grid target.
type YOLiteSample struct {
	Raster *tensor.Tensor
	Target *tensor.Tensor
}

// TrainYOLiteBatch is TrainBatch with the detection loss: one optimiser step
// over the batch, returning the mean loss.
func TrainYOLiteBatch(net *Network, batch []YOLiteSample, opt *SGD) (float64, error) {
	if len(batch) == 0 {
		return 0, fmt.Errorf("nn: empty YOLite batch")
	}
	return net.trainStep(len(batch), func(i int) *tensor.Tensor { return batch[i].Raster },
		func(i int, out, grad *tensor.Tensor) (float64, error) {
			return yoliteLossInto(out, batch[i].Target, grad)
		}, opt)
}
