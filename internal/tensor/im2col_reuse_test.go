package tensor

import (
	"testing"

	"mvml/internal/xrand"
)

// TestIm2ColBatchDirtyReuseAcrossShapes: a caller may reuse one column buffer
// across layers and batch sizes, re-sliced to each call's geometry (the arena
// does the same with its packed panels — see
// TestPackIm2ColDirtyReuseAcrossShapes). When the output shrinks (smaller batch, bigger stride, less padding) the buffer
// still holds stale columns from the previous call past the new extent —
// every in-extent element must therefore be written, padding positions as
// explicit zeros. This pins the audit of that contract: poison the buffer
// with a sentinel between calls and require bitwise identity with a
// fresh-buffer unroll for every geometry transition.
func TestIm2ColBatchDirtyReuseAcrossShapes(t *testing.T) {
	r := xrand.New(21)
	type geom struct {
		b, c, h, w          int
		kh, kw, stride, pad int
	}
	// Deliberate shrink transitions: batch 4→1, stride 1→2 (spatial collapse),
	// pad 2→0, and a grow back at the end to catch under-slicing too.
	geoms := []geom{
		{4, 3, 12, 12, 3, 3, 1, 2},
		{1, 3, 12, 12, 3, 3, 1, 2},
		{2, 3, 12, 12, 3, 3, 2, 1},
		{2, 2, 8, 8, 5, 5, 2, 0},
		{1, 1, 6, 6, 3, 3, 3, 0},
		{4, 3, 12, 12, 3, 3, 1, 2},
	}
	shared := &Tensor{}
	for _, g := range geoms {
		in := New(g.b, g.c, g.h, g.w)
		in.RandomizeUniform(r, -1, 1)
		oh, ow := Conv2DShape(g.h, g.w, g.kh, g.kw, g.stride, g.pad)
		rows, cols := g.c*g.kh*g.kw, g.b*oh*ow
		// Re-slice the shared buffer the way a reusing caller does, poisoning the
		// whole capacity so any unwritten element is visible.
		if cap(shared.Data) < rows*cols {
			shared.Data = make([]float32, rows*cols)
		}
		shared.Data = shared.Data[:cap(shared.Data)]
		for i := range shared.Data {
			shared.Data[i] = 1e30 // sentinel: never a legal im2col value here
		}
		shared.Data = shared.Data[:rows*cols]
		shared.Shape = []int{rows, cols}
		if err := Im2ColBatch(in, g.kh, g.kw, g.stride, g.pad, shared); err != nil {
			t.Fatalf("%+v: %v", g, err)
		}
		fresh := New(rows, cols)
		if err := Im2ColBatch(in, g.kh, g.kw, g.stride, g.pad, fresh); err != nil {
			t.Fatalf("%+v fresh: %v", g, err)
		}
		bitsEqual(t, "Im2ColBatch dirty reuse", shared.Data, fresh.Data)
	}
}
