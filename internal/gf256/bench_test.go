package gf256

import (
	"fmt"
	"testing"
)

// benchKernels runs fn once per kernel (the log/exp oracle and the
// production table kernel) as a sub-benchmark. SetBytes is left to fn.
func benchKernels(b *testing.B, fn func(b *testing.B, k *kernel)) {
	for _, k := range kernels {
		k := k
		b.Run(k.name, func(b *testing.B) { fn(b, k) })
	}
}

// BenchmarkKernelMulAddSlice is the two-operand axpy that the acceptance
// criterion measures: MulAddSlice on 4 KiB payloads, per kernel.
func BenchmarkKernelMulAddSlice(b *testing.B) {
	for _, size := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			src := testPattern(size, 1)
			dst := testPattern(size, 2)
			benchKernels(b, func(b *testing.B, k *kernel) {
				b.SetBytes(int64(size))
				for i := 0; i < b.N; i++ {
					k.mulAdd(byte(i)|2, dst, src)
				}
			})
		})
	}
}

// BenchmarkKernelMulAddRows is the fused row primitive the codec actually
// runs: four source rows folded into one destination pass.
func BenchmarkKernelMulAddRows(b *testing.B) {
	const rows = 4
	for _, size := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			dst := testPattern(size, 0)
			srcs := make([][]byte, rows)
			coeffs := make([]byte, rows)
			for j := range srcs {
				srcs[j] = testPattern(size, j+1)
				coeffs[j] = byte(0x53 + 2*j)
			}
			benchKernels(b, func(b *testing.B, k *kernel) {
				b.SetBytes(int64(size * rows))
				for i := 0; i < b.N; i++ {
					k.mulAddRows(coeffs, dst, srcs)
				}
			})
		})
	}
}

func BenchmarkAddSlice(b *testing.B) {
	const size = 4096
	src := testPattern(size, 1)
	dst := testPattern(size, 2)
	b.SetBytes(size)
	for i := 0; i < b.N; i++ {
		AddSlice(dst, src)
	}
}
