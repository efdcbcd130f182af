//go:build amd64

package main

// peakFlopsPerIter is the floating-point work of one peakMulAdd iteration:
// 14 four-lane SSE instructions.
const peakFlopsPerIter = 14 * 4

// peakMulAdd runs iters iterations of seven independent MULPS and seven
// independent ADDPS register chains (peak_amd64.s). iters must be >= 1.
//
//go:noescape
func peakMulAdd(iters int)
