//go:build amd64 && !noasm

package nn

// haveAsm gates the SSE2 kernels of this package (the 2×2 max-pool forward
// and backward, and the output epilogue); SSE2 is part of the amd64 baseline, so no runtime feature
// detection is needed.
const haveAsm = true

// maxPool2x2RowAsm writes n outputs of a 2×2, stride-2 max-pool: dst[i] folds
// the window r0[2i], r0[2i+1], r1[2i], r1[2i+1] in that order under the
// scalar rule "best = v if v > best", so NaNs and ±0 ties resolve exactly as
// in MaxPool2D's Go window loop. Reads 2n floats from each row.
//
//go:noescape
func maxPool2x2RowAsm(dst, r0, r1 *float32, n int)

// maxPool2x2BackRowAsm is maxPool2x2BackRowGo over n windows: d0 and d1 are
// the destination rows under the source rows r0 and r1 (2n floats each), grad
// the n output gradients. Every destination float is written.
//
//go:noescape
func maxPool2x2BackRowAsm(d0, d1, r0, r1, grad *float32, n int)

// epilogueRowAsm is epilogueRowGo over n floats. A nil add is the mask-only
// form; with step 0 add points at four copies of the addend, with step 1 at
// n addends.
//
//go:noescape
func epilogueRowAsm(dst, src, add *float32, n, step int, relu bool)
