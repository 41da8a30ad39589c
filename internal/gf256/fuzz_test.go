package gf256

import (
	"bytes"
	"testing"
)

// FuzzKernels checks the table kernel against the log/exp oracle: for
// arbitrary coefficients and payloads, MulSlice, MulAddSlice and
// MulAddRows must agree byte for byte with the reference. The table
// kernel is driven through the public wrappers (which own the
// degenerate c == 0 / c == 1 cases) because that is the contract the
// erasure codec relies on. The payload is split in two so the rows form
// exercises multiple source slices with distinct contents.
func FuzzKernels(f *testing.F) {
	f.Add(byte(0), byte(0), []byte{})
	f.Add(byte(1), byte(2), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(byte(29), byte(255), []byte("weakly-connected browsing!"))
	f.Add(byte(142), byte(113), make([]byte, 65))
	f.Fuzz(func(t *testing.T, c1, c2 byte, payload []byte) {
		half := len(payload) / 2
		a, b := payload[:half], payload[half:half*2]

		want := make([]byte, half)
		got := make([]byte, half)
		check := func(op string) {
			t.Helper()
			if !bytes.Equal(got, want) {
				t.Fatalf("%s(c=[%d %d]) = %x, logexp oracle %x", op, c1, c2, got, want)
			}
		}

		logExpMulSlice(c1, want, a)
		MulSlice(c1, got, a)
		check("MulSlice")

		copy(want, b)
		logExpMulAdd(c1, want, a)
		copy(got, b)
		MulAddSlice(c1, got, a)
		check("MulAddSlice")

		clear(want)
		pairwiseRows(logExpMulAdd, []byte{c1, c2}, want, [][]byte{a, b})
		clear(got)
		MulAddRows([]byte{c1, c2}, got, [][]byte{a, b})
		check("MulAddRows")
	})
}
