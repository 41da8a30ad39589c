package gf256

import "testing"

// TestKernelsAllocationFree pins the hotalloc contract of the slice
// kernel: the fused-rows accumulation (and the two-operand forms it is
// built from) must not touch the heap. tableMulAddRows
// once made three slices per call to compact its coefficients — per
// parity row, per frame — which this test would have caught.
func TestKernelsAllocationFree(t *testing.T) {
	const (
		size = 4096
		rows = 7 // exercises the 4-, 2- and 1-row tails of the fused kernel
	)
	dst := make([]byte, size)
	srcs := make([][]byte, rows)
	coeffs := make([]byte, rows)
	for j := range srcs {
		srcs[j] = make([]byte, size)
		for i := range srcs[j] {
			srcs[j][i] = byte(i*(j+3) + j)
		}
		coeffs[j] = byte(7*j + 2)
	}
	coeffs[2] = 0 // compaction path
	coeffs[4] = 1 // identity-coefficient path

	checks := []struct {
		op string
		fn func()
	}{
		{"MulAddRows", func() { MulAddRows(coeffs, dst, srcs) }},
		{"MulAddSlice", func() { MulAddSlice(0x53, dst, srcs[0]) }},
		{"MulSlice", func() { MulSlice(0x1d, dst, srcs[1]) }},
		{"AddSlice", func() { AddSlice(dst, srcs[3]) }},
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(50, c.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", c.op, allocs)
		}
	}
}
