package gf256

import (
	"bytes"
	"testing"
)

// kernel is one implementation of the slice primitives under test,
// each with the public wrappers' full contract (degenerate coefficients
// included).
type kernel struct {
	name       string
	mulSlice   func(c byte, dst, src []byte)
	mulAdd     func(c byte, dst, src []byte)
	mulAddRows func(coeffs []byte, dst []byte, srcs [][]byte)
}

// kernels lists the log/exp oracle first, then the production table
// kernel behind the public wrappers.
var kernels = []*kernel{
	{
		name:     "logexp",
		mulSlice: logExpMulSlice,
		mulAdd:   logExpMulAdd,
		mulAddRows: func(coeffs []byte, dst []byte, srcs [][]byte) {
			pairwiseRows(logExpMulAdd, coeffs, dst, srcs)
		},
	},
	{name: "table", mulSlice: MulSlice, mulAdd: MulAddSlice, mulAddRows: MulAddRows},
}

// logExpMulAdd is the reference axpy: a branch plus two dependent
// log/exp lookups per byte.
func logExpMulAdd(c byte, dst, src []byte) {
	if c == 0 {
		return
	}
	logC := int(_tables.log[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= _tables.exp[logC+int(_tables.log[s])]
		}
	}
}

// logExpMulSlice is the reference scaling dst = c*src.
func logExpMulSlice(c byte, dst, src []byte) {
	logC := int(_tables.log[c])
	for i, s := range src {
		if s == 0 || c == 0 {
			dst[i] = 0
			continue
		}
		dst[i] = _tables.exp[logC+int(_tables.log[s])]
	}
}

// pairwiseRows is the generic row accumulation: one two-operand pass per
// coefficient, with the degenerate coefficients peeled off.
func pairwiseRows(mulAdd func(byte, []byte, []byte), coeffs []byte, dst []byte, srcs [][]byte) {
	for j, c := range coeffs {
		switch c {
		case 0:
		case 1:
			xorSlice(dst, srcs[j])
		default:
			mulAdd(c, dst, srcs[j])
		}
	}
}

// withKernel runs fn once per kernel as a subtest.
func withKernel(t *testing.T, fn func(t *testing.T, k *kernel)) {
	t.Helper()
	for _, k := range kernels {
		k := k
		t.Run(k.name, func(t *testing.T) { fn(t, k) })
	}
}

// testPattern fills a deterministic but irregular byte pattern covering
// zero bytes, high bytes and every residue class.
func testPattern(n, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*(2*seed+3) + seed*7)
	}
	return b
}

// TestKernelsAgainstScalar checks every kernel's three primitives against
// scalar Mul for a range of lengths (covering the 8-byte SWAR tail) and
// coefficients, including the degenerate 0 and 1.
func TestKernelsAgainstScalar(t *testing.T) {
	lengths := []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 255, 256, 1024}
	coeffs := []byte{0, 1, 2, 3, 29, 113, 142, 200, 254, 255}
	withKernel(t, func(t *testing.T, k *kernel) {
		for _, n := range lengths {
			src := testPattern(n, 1)
			for _, c := range coeffs {
				// MulSlice.
				dst := testPattern(n, 2)
				k.mulSlice(c, dst, src)
				for i := range src {
					if want := Mul(c, src[i]); dst[i] != want {
						t.Fatalf("%s MulSlice(c=%d, n=%d)[%d] = %d, want %d",
							k.name, c, n, i, dst[i], want)
					}
				}
				// MulAddSlice.
				dst = testPattern(n, 2)
				orig := append([]byte(nil), dst...)
				k.mulAdd(c, dst, src)
				for i := range src {
					if want := orig[i] ^ Mul(c, src[i]); dst[i] != want {
						t.Fatalf("%s MulAddSlice(c=%d, n=%d)[%d] = %d, want %d",
							k.name, c, n, i, dst[i], want)
					}
				}
			}
		}
	})
}

// TestMulAddRowsAgainstScalar exercises the fused row primitive for every
// kernel across row counts that hit the 4/2/1 unrolling tails and rows
// with zero and one coefficients interleaved.
func TestMulAddRowsAgainstScalar(t *testing.T) {
	lengths := []int{0, 1, 8, 17, 256, 1024}
	withKernel(t, func(t *testing.T, k *kernel) {
		for _, n := range lengths {
			for rows := 0; rows <= 9; rows++ {
				srcs := make([][]byte, rows)
				coeffs := make([]byte, rows)
				for j := range srcs {
					srcs[j] = testPattern(n, j+1)
					// Interleave zero, one and general coefficients.
					switch j % 3 {
					case 0:
						coeffs[j] = 0
					case 1:
						coeffs[j] = 1
					default:
						coeffs[j] = byte(37*j + 5)
					}
				}
				dst := testPattern(n, 0)
				want := append([]byte(nil), dst...)
				for j := range srcs {
					for i := range want {
						want[i] ^= Mul(coeffs[j], srcs[j][i])
					}
				}
				k.mulAddRows(coeffs, dst, srcs)
				if !bytes.Equal(dst, want) {
					t.Fatalf("%s MulAddRows(rows=%d, n=%d) mismatch", k.name, rows, n)
				}
			}
		}
	})
}

func TestMulAddRowsPanics(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("coeff count mismatch", func() {
		MulAddRows([]byte{1, 2}, make([]byte, 8), [][]byte{make([]byte, 8)})
	})
	assertPanics("source length mismatch", func() {
		MulAddRows([]byte{1}, make([]byte, 8), [][]byte{make([]byte, 7)})
	})
}

func TestXorSlice(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 17, 64, 100} {
		dst := testPattern(n, 3)
		src := testPattern(n, 5)
		want := make([]byte, n)
		for i := range want {
			want[i] = dst[i] ^ src[i]
		}
		xorSlice(dst, src)
		if !bytes.Equal(dst, want) {
			t.Fatalf("xorSlice(n=%d) mismatch", n)
		}
	}
}

// TestMulTablesConsistent pins the product table to scalar Mul.
func TestMulTablesConsistent(t *testing.T) {
	for c := 0; c < 256; c++ {
		for x := 0; x < 256; x++ {
			if got, want := _mul[c][x], Mul(byte(c), byte(x)); got != want {
				t.Fatalf("_mul[%d][%d] = %d, want %d", c, x, got, want)
			}
		}
	}
}

// TestMulAddRowsBeyondFieldSize covers the chunked path for more source
// rows than a GF(2^8) code can have: the fused kernel folds them 256 at
// a time and must still match the oracle.
func TestMulAddRowsBeyondFieldSize(t *testing.T) {
	const rows, n = 300, 17
	srcs := make([][]byte, rows)
	coeffs := make([]byte, rows)
	for j := range srcs {
		srcs[j] = testPattern(n, j+1)
		coeffs[j] = byte(j * 7)
	}
	want := testPattern(n, 0)
	got := append([]byte(nil), want...)
	pairwiseRows(logExpMulAdd, coeffs, want, srcs)
	MulAddRows(coeffs, got, srcs)
	if !bytes.Equal(got, want) {
		t.Fatalf("MulAddRows over %d rows = %x, want %x", rows, got, want)
	}
}
