package main

import (
	"flag"
	"fmt"
	"image"
	"image/color"
	"io"

	"mvml/internal/cli"
	"mvml/internal/nn"
	"mvml/internal/signs"
	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

// cmdSigns renders a contact sheet of the synthetic traffic-sign dataset to a
// PNG, one row per class (or a selected range), so the GTSRB substitution can
// be inspected visually.
func cmdSigns(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("mvml signs", flag.ContinueOnError)
	out := fs.String("o", "signs.png", "output PNG path")
	perClass := fs.Int("per-class", 8, "instances per class (columns)")
	firstClass := fs.Int("first", 0, "first class to render")
	lastClass := fs.Int("last", signs.NumClasses-1, "last class to render")
	noise := fs.Float64("noise", -1, "override pixel-noise sigma (-1 = dataset default)")
	seed := fs.Uint64("seed", 38, "render seed")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	if *perClass < 1 {
		return cli.Usagef("per-class must be positive, got %d", *perClass)
	}
	if *firstClass < 0 || *lastClass >= signs.NumClasses || *firstClass > *lastClass {
		return cli.Usagef("class range [%d, %d] outside [0, %d]", *firstClass, *lastClass, signs.NumClasses-1)
	}
	cfg := signs.DefaultConfig()
	cfg.Seed = *seed
	if *noise >= 0 {
		cfg.Noise = *noise
	}

	const pad = 2
	cell := nn.InputSize + pad
	rows := *lastClass - *firstClass + 1
	sheet := image.NewRGBA(image.Rect(0, 0, *perClass*cell+pad, rows*cell+pad))
	root := xrand.New(cfg.Seed)
	for row := 0; row < rows; row++ {
		class := *firstClass + row
		r := root.Split("sheet", uint64(class))
		for col := 0; col < *perClass; col++ {
			blit(sheet, signs.Render(class, r, cfg), pad+col*cell, pad+row*cell)
		}
	}
	if err := writePNG(*out, sheet); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d classes x %d instances)\n", *out, rows, *perClass)
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
