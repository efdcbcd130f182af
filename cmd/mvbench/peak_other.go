//go:build !amd64

package main

// peakFlopsPerIter is the floating-point work of one peakMulAdd iteration.
// Without the SSE loop this is a scalar ceiling, four lanes short of what a
// vector unit reaches; tensor's kernels are scalar on these platforms too.
const peakFlopsPerIter = 14

// peakMulAdd runs iters iterations of seven independent multiply and seven
// independent add chains in scalar float32 arithmetic.
func peakMulAdd(iters int) {
	m := [7]float32{1, 1, 1, 1, 1, 1, 1}
	var a [7]float32
	one, zero := float32(1), float32(0)
	for i := 0; i < iters; i++ {
		for j := range m {
			m[j] *= one
			a[j] += zero
		}
	}
	sink = [2][7]float32{m, a}
}
