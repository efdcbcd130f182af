//go:build !amd64 || noasm

package tensor

// haveGemmAsm is false off amd64 and under the noasm tag (which lets an amd64
// host test the fallbacks): GemmPacked always runs the portable
// gemmMicroGo kernel, which is bitwise identical by construction.
const haveGemmAsm = false

// gemmMicroAsm is never called when haveGemmAsm is false; this stub only
// satisfies the reference so the dispatch code compiles everywhere.
func gemmMicroAsm(c, ap, bp *float32, ldc, kk int) {
	panic("tensor: gemmMicroAsm without asm support")
}

// gemmInt8MicroAsm is never called when haveGemmAsm is false.
func gemmInt8MicroAsm(c *int32, ap, bp *int16, ldc, kp int) {
	panic("tensor: gemmInt8MicroAsm without asm support")
}

// quantPackPairAsm is never called when haveGemmAsm is false.
func quantPackPairAsm(dst *int16, r0, r1 *float32, inv float32, panels, stride int) {
	panic("tensor: quantPackPairAsm without asm support")
}
