//go:build !amd64 || noasm

package tensor

// haveGemmAsm is false off amd64 and under the noasm tag (which lets an amd64
// host test the fallbacks): the int8 path and addRows run their portable
// kernels.
const haveGemmAsm = false

// gemmArm is always the portable gemmMicroGo kernel here, which is bitwise
// identical to the assembly ones by construction.
var gemmArm = armGo

// gemmMicroAsm is never called when gemmArm is armGo; this stub only
// satisfies the reference so the dispatch code compiles everywhere.
func gemmMicroAsm(c, ap, bp *float32, ldc, kk int) {
	panic("tensor: gemmMicroAsm without asm support")
}

// gemmMicro2AVX2 is never called when gemmArm is armGo.
func gemmMicro2AVX2(c, ap, bp *float32, ldc, kk, bstride int) {
	panic("tensor: gemmMicro2AVX2 without asm support")
}

// gemmMicro4AVX512 is never called when gemmArm is armGo.
func gemmMicro4AVX512(c, ap, bp *float32, ldc, kk, bstride int) {
	panic("tensor: gemmMicro4AVX512 without asm support")
}

// packPanelLoadAVX2 is never called when gemmArm is armGo.
func packPanelLoadAVX2(dst, src *float32, off *int, kk int) {
	panic("tensor: packPanelLoadAVX2 without asm support")
}

// packPanelLoad2AVX2 is never called when gemmArm is armGo.
func packPanelLoad2AVX2(dst, src *float32, off *int, kk, shift int, mask *[gemmNR]int32) {
	panic("tensor: packPanelLoad2AVX2 without asm support")
}

// packPanelGatherAVX2 is never called when gemmArm is armGo.
func packPanelGatherAVX2(dst, src *float32, off *int, kk int, idx, mask *[gemmNR]int32) {
	panic("tensor: packPanelGatherAVX2 without asm support")
}

// addRowsAsm is never called when haveGemmAsm is false.
func addRowsAsm(dst, src *float32, n, rows, ldd int) {
	panic("tensor: addRowsAsm without asm support")
}

// gemmInt8MicroAsm is never called when haveGemmAsm is false.
func gemmInt8MicroAsm(c *int32, ap, bp *int16, ldc, kp int) {
	panic("tensor: gemmInt8MicroAsm without asm support")
}

// quantPackPairAsm is never called when haveGemmAsm is false.
func quantPackPairAsm(dst *int16, r0, r1 *float32, inv float32, panels, stride int) {
	panic("tensor: quantPackPairAsm without asm support")
}
