package main

import (
	"fmt"
	"image"
	"image/color"
	"image/draw"
	"io"
	"math"

	"mvml/internal/drivesim"
)

// renderMaps draws the four town layouts with their two routes each — the
// reproduction of the paper's Fig. 5 — into a 2x2-panel PNG. Route start
// points are marked with a filled disc (the paper's ovals), endpoints with a
// cross (the paper's stars).
func renderMaps(path string, w io.Writer) error {
	const (
		panel  = 360
		margin = 24
	)
	towns := drivesim.Towns()
	img := image.NewRGBA(image.Rect(0, 0, 2*panel, 2*panel))
	draw.Draw(img, img.Bounds(), image.NewUniform(color.RGBA{245, 245, 245, 255}), image.Point{}, draw.Src)

	routeColors := []color.RGBA{{200, 40, 40, 255}, {40, 60, 200, 255}}
	for ti, town := range towns {
		ox := (ti % 2) * panel
		oy := (ti / 2) * panel

		// Panel frame.
		frame := color.RGBA{180, 180, 180, 255}
		drawLine(img, ox, oy, ox+panel-1, oy, frame)
		drawLine(img, ox, oy+panel-1, ox+panel-1, oy+panel-1, frame)
		drawLine(img, ox, oy, ox, oy+panel-1, frame)
		drawLine(img, ox+panel-1, oy, ox+panel-1, oy+panel-1, frame)

		// Town bounding box over all routes.
		minX, minY := math.Inf(1), math.Inf(1)
		maxX, maxY := math.Inf(-1), math.Inf(-1)
		for _, route := range town.Routes {
			for _, p := range route.Points() {
				minX = math.Min(minX, p.X)
				minY = math.Min(minY, p.Y)
				maxX = math.Max(maxX, p.X)
				maxY = math.Max(maxY, p.Y)
			}
		}
		scale := math.Min(
			float64(panel-2*margin)/math.Max(maxX-minX, 1),
			float64(panel-2*margin)/math.Max(maxY-minY, 1))
		toPx := func(p drivesim.Vec2) (int, int) {
			return ox + margin + int((p.X-minX)*scale),
				oy + panel - margin - int((p.Y-minY)*scale)
		}

		for ri, route := range town.Routes {
			col := routeColors[ri%len(routeColors)]
			pts := route.Points()
			for i := 1; i < len(pts); i++ {
				x0, y0 := toPx(pts[i-1])
				x1, y1 := toPx(pts[i])
				drawLine(img, x0, y0, x1, y1, col)
			}
			// Start disc and end cross.
			sx, sy := toPx(pts[0])
			drawDisc(img, sx, sy, 5, col)
			ex, ey := toPx(pts[len(pts)-1])
			drawCross(img, ex, ey, 6, col)
		}
	}
	if err := writePNG(path, img); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (Fig. 5 analog: %d towns, 2 routes each)\n", path, len(towns))
	return nil
}

// drawLine is Bresenham's algorithm with a 2px brush.
func drawLine(img *image.RGBA, x0, y0, x1, y1 int, c color.RGBA) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	errAcc := dx + dy
	for {
		img.SetRGBA(x0, y0, c)
		img.SetRGBA(x0+1, y0, c)
		img.SetRGBA(x0, y0+1, c)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * errAcc
		if e2 >= dy {
			errAcc += dy
			x0 += sx
		}
		if e2 <= dx {
			errAcc += dx
			y0 += sy
		}
	}
}

func drawDisc(img *image.RGBA, cx, cy, r int, c color.RGBA) {
	for y := -r; y <= r; y++ {
		for x := -r; x <= r; x++ {
			if x*x+y*y <= r*r {
				img.SetRGBA(cx+x, cy+y, c)
			}
		}
	}
}

func drawCross(img *image.RGBA, cx, cy, r int, c color.RGBA) {
	for d := -r; d <= r; d++ {
		img.SetRGBA(cx+d, cy+d, c)
		img.SetRGBA(cx+d+1, cy+d, c)
		img.SetRGBA(cx+d, cy-d, c)
		img.SetRGBA(cx+d+1, cy-d, c)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
