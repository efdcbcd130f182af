//go:build !amd64 || noasm

package nn

// havePoolAsm is false off amd64 and under the noasm tag: MaxPool2D always
// runs the portable window loop.
const havePoolAsm = false

// maxPool2x2RowAsm is never called when havePoolAsm is false; this stub only
// satisfies the reference so the dispatch code compiles everywhere.
func maxPool2x2RowAsm(dst, r0, r1 *float32, n int) {
	panic("nn: maxPool2x2RowAsm without asm support")
}
