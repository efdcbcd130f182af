// Command signsheet renders a contact sheet of the synthetic traffic-sign
// dataset to a PNG, one row per class (or a selected range), so the GTSRB
// substitution can be inspected visually.
//
//	signsheet -o signs.png
//	signsheet -o hard.png -per-class 12 -noise 0.15
package main

import (
	"flag"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"os"
	"time"

	"mvml/internal/nn"
	"mvml/internal/obs"
	"mvml/internal/signs"
	"mvml/internal/telemetry"
	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

func main() {
	out := flag.String("o", "signs.png", "output PNG path")
	perClass := flag.Int("per-class", 8, "instances per class (columns)")
	firstClass := flag.Int("first", 0, "first class to render")
	lastClass := flag.Int("last", signs.NumClasses-1, "last class to render")
	noise := flag.Float64("noise", -1, "override pixel-noise sigma (-1 = dataset default)")
	seed := flag.Uint64("seed", 38, "render seed")
	var tele telemetry.Flags
	tele.RegisterFlags(flag.CommandLine)
	flag.Parse()

	rt, err := tele.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "signsheet:", err)
		os.Exit(1)
	}
	runErr := run(*out, *perClass, *firstClass, *lastClass, *noise, *seed, rt)
	if err := tele.Finish(map[string]any{
		"command": "signsheet", "seed": *seed,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "signsheet:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "signsheet:", runErr)
		os.Exit(1)
	}
}

func run(out string, perClass, firstClass, lastClass int, noise float64, seed uint64, rt *obs.Runtime) error {
	if perClass < 1 {
		return fmt.Errorf("per-class must be positive, got %d", perClass)
	}
	if firstClass < 0 || lastClass >= signs.NumClasses || firstClass > lastClass {
		return fmt.Errorf("class range [%d, %d] outside [0, %d]", firstClass, lastClass, signs.NumClasses-1)
	}
	cfg := signs.DefaultConfig()
	cfg.Seed = seed
	if noise >= 0 {
		cfg.Noise = noise
	}

	const pad = 2
	cell := nn.InputSize + pad
	rows := lastClass - firstClass + 1
	sheet := image.NewRGBA(image.Rect(0, 0, perClass*cell+pad, rows*cell+pad))
	root := xrand.New(cfg.Seed)

	reg := rt.Metrics()
	var renderHist *obs.Histogram
	var tileCtr *obs.Counter
	if reg != nil {
		reg.Help("mvml_signsheet_render_seconds", "Per-tile render latency of the synthetic sign generator.")
		reg.Help("mvml_signsheet_tiles_total", "Tiles rendered, labelled by class.")
		renderHist = reg.Histogram("mvml_signsheet_render_seconds", obs.LatencyBuckets())
	}

	for row := 0; row < rows; row++ {
		class := firstClass + row
		r := root.Split("sheet", uint64(class))
		if reg != nil {
			tileCtr = reg.Counter("mvml_signsheet_tiles_total", "class", fmt.Sprintf("%d", class))
		}
		for col := 0; col < perClass; col++ {
			var start time.Time
			if reg != nil {
				start = time.Now()
			}
			img := signs.Render(class, r, cfg)
			renderHist.Observe(time.Since(start).Seconds())
			tileCtr.Inc()
			blit(sheet, img, pad+col*cell, pad+row*cell)
		}
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if err := png.Encode(f, sheet); err != nil {
		return fmt.Errorf("encoding %s: %w", out, err)
	}
	fmt.Printf("wrote %s (%d classes x %d instances)\n", out, rows, perClass)
	return nil
}

// blit copies one rendered sign tensor into the sheet at (x0, y0).
func blit(dst *image.RGBA, src *tensor.Tensor, x0, y0 int) {
	size := src.Shape[1]
	plane := size * size
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			idx := y*size + x
			dst.SetRGBA(x0+x, y0+y, color.RGBA{
				R: uint8(src.Data[idx]*255 + 0.5),
				G: uint8(src.Data[plane+idx]*255 + 0.5),
				B: uint8(src.Data[2*plane+idx]*255 + 0.5),
				A: 255,
			})
		}
	}
}
