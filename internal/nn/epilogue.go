package nn

import "math"

// The epilogue is the one output pass of the arena path: after a GEMM it
// adds the bias (or dequantizes), after a residual body it adds the skip,
// and when the layer feeds a ReLU it applies that too, so the activation is
// written once. epilogueRowGo is the spec; on amd64 the SSE2 kernel in
// epilogue_amd64.s runs it up to eight floats a turn, bit for bit.

// addRow writes dst[i] = src[i] + add[i], then the ReLU when relu is set.
func addRow(dst, src, add []float32, relu bool) {
	epilogue(dst, src, add[:len(src)], 1, relu)
}

// addScalarRow writes dst[i] = src[i] + c, then the ReLU when relu is set.
func addScalarRow(dst, src []float32, c float32, relu bool) {
	cs := [4]float32{c, c, c, c} // the kernel loads the addend four lanes wide
	epilogue(dst, src, cs[:], 0, relu)
}

// reluInto writes the ReLU's rule — 0 where v <= 0, else v. It adds nothing,
// so every NaN, signalling ones included, keeps its bits.
func reluInto(dst, src []float32) {
	epilogue(dst, src, nil, 0, true)
}

// epilogue runs epilogueRowGo's pass on the SSE2 kernel where there is one.
func epilogue(dst, src, add []float32, step int, relu bool) {
	n := len(src)
	if n == 0 {
		return
	}
	dst = dst[:n]
	if !haveAsm {
		epilogueRowGo(dst, src, add, step, relu)
		return
	}
	var a *float32
	if add != nil {
		a = &add[0]
	}
	epilogueRowAsm(&dst[0], &src[0], a, n, step, relu)
}

// epilogueRowGo writes dst[i] = src[i] + add[i*step], then relu(v), with
// no add when add is nil. step 0 broadcasts add[0].
func epilogueRowGo(dst, src, add []float32, step int, relu bool) {
	for i, v := range src {
		if add != nil {
			v = addSrcFirst(v, add[i*step])
		}
		if relu {
			v = reluBits(v)
		}
		dst[i] = v
	}
}

// addSrcFirst is v + a, with v's NaN (quieted) when both are NaN — ADDPS's
// rule with v in the destination. IEEE 754 leaves that choice open, and Go
// may compile v + a with either operand first (it does differ under -race),
// so the spec fixes it.
func addSrcFirst(v, a float32) float32 {
	if v != v {
		return math.Float32frombits(math.Float32bits(v) | 0x00400000)
	}
	return v + a
}

// reluBits is 0 where v <= 0, else v, on the bit pattern, so it has no
// data-dependent branch to mispredict on the coin-flip signs of real
// activations (the two ifs compile to conditional moves). v <= 0 holds
// exactly for +0 (bits 0) and for [0x80000000, 0xff800000] (−0, the negative
// finites, −Inf); NaNs of either sign lie outside. bits−1 wraps +0 above
// everything else, so one unsigned compare splits off the positives and
// +NaNs, and a second restores the −NaNs.
func reluBits(v float32) float32 {
	b := math.Float32bits(v)
	out := b
	if b-1 >= 0x7fffffff { // v <= 0, or a −NaN
		out = 0
	}
	if b > 0xff800000 { // −NaN: put it back
		out = b
	}
	return math.Float32frombits(out)
}
