//go:build !amd64 || noasm

package nn

// haveAsm is false off amd64 and under the noasm tag: MaxPool2D runs the
// portable window loop forward and maxPool2x2BackRowGo backward, and the
// epilogue runs epilogueRowGo.
const haveAsm = false

// maxPool2x2RowAsm, maxPool2x2BackRowAsm and epilogueRowAsm are never
// called when haveAsm is false; these stubs only satisfy the references so the dispatch code
// compiles everywhere.
func maxPool2x2RowAsm(dst, r0, r1 *float32, n int) {
	panic("nn: maxPool2x2RowAsm without asm support")
}

func maxPool2x2BackRowAsm(d0, d1, r0, r1, grad *float32, n int) {
	panic("nn: maxPool2x2BackRowAsm without asm support")
}

func epilogueRowAsm(dst, src, add *float32, n, step int, relu bool) {
	panic("nn: epilogueRowAsm without asm support")
}
