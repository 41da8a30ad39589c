// Package erasure implements the systematic information-dispersal codec
// at the heart of fault-tolerant multi-resolution transmission (§4.1 of
// the paper).
//
// A payload is split into M raw packets of equal size. A Coder expands
// them into N >= M "cooked" packets that are GF(2^8)-linear combinations
// of the raw packets, using a Vandermonde dispersal matrix brought into
// systematic form:
//
//   - the first M cooked packets are byte-identical to the raw packets
//     ("clear text"), so a receiver can consume content before collecting
//     all of M packets, and
//   - ANY M intact cooked packets reconstruct all M raw packets, by
//     inverting the corresponding M×M submatrix (Rabin's IDA, JACM 1989,
//     with the Vandermonde modification the paper describes).
//
// The byte work runs through the GF(2^8) table kernel in package
// gf256; output rows are computed by a GOMAXPROCS-bounded worker
// pool above a work-size cutover (see parallel.go); and submatrix
// inversions are memoized per Coder because retransmission rounds repeat
// row patterns (see invcache.go).
package erasure

import (
	"errors"
	"fmt"
	"sort"

	"mobweb/internal/matrix"
)

// Limits imposed by the GF(2^8) Vandermonde construction: the dispersal
// matrix needs N distinct evaluation points among the 255 non-zero field
// elements.
const (
	// MaxCooked is the largest supported number of cooked packets.
	MaxCooked = 255
)

// Errors reported by the codec. They are exported so transmission-layer
// callers can distinguish "not yet reconstructible" from hard failures.
var (
	// ErrShortSet signals fewer than M packets were supplied to Decode.
	ErrShortSet = errors.New("erasure: fewer than M packets available")
	// ErrDuplicateIndex signals the same cooked index appeared twice.
	ErrDuplicateIndex = errors.New("erasure: duplicate cooked packet index")
)

// Coder encodes M raw packets into N cooked packets and decodes any M of
// them back. A Coder's coding parameters are immutable after
// construction and it is safe for concurrent use; the only mutable state
// is the internal inverse cache, which synchronizes itself.
type Coder struct {
	m, n      int
	dispersal *matrix.Matrix // n×m systematic dispersal matrix
	inv       invCache       // memoized inverted submatrices by row set
}

// NewCoder constructs a systematic (m, n) coder. It returns an error when
// the shape is infeasible: m < 1, n < m, or n > MaxCooked.
func NewCoder(m, n int) (*Coder, error) {
	if m < 1 {
		return nil, fmt.Errorf("erasure: m = %d, want >= 1", m)
	}
	if n < m {
		return nil, fmt.Errorf("erasure: n = %d < m = %d", n, m)
	}
	if n > MaxCooked {
		return nil, fmt.Errorf("erasure: n = %d exceeds %d", n, MaxCooked)
	}
	v, err := matrix.Vandermonde(n, m)
	if err != nil {
		return nil, fmt.Errorf("dispersal matrix: %w", err)
	}
	sys, err := v.Systematic()
	if err != nil {
		return nil, fmt.Errorf("dispersal matrix: %w", err)
	}
	return &Coder{m: m, n: n, dispersal: sys}, nil
}

// M returns the number of raw packets.
func (c *Coder) M() int { return c.m }

// N returns the number of cooked packets.
func (c *Coder) N() int { return c.n }

// Ratio returns the redundancy ratio γ = N/M.
func (c *Coder) Ratio() float64 { return float64(c.n) / float64(c.m) }

// allocPackets carves count packet slices of size bytes out of one
// backing arena. The full slice expressions cap each view at its own
// region, so an append on one packet can never scribble on its neighbor.
func allocPackets(count, size int) [][]byte {
	backing := make([]byte, count*size)
	out := make([][]byte, count)
	for i := range out {
		out[i] = backing[i*size : (i+1)*size : (i+1)*size]
	}
	return out
}

// checkRaw validates the raw packet set and returns the shared size.
func (c *Coder) checkRaw(raw [][]byte) (int, error) {
	if len(raw) != c.m {
		return 0, fmt.Errorf("erasure: got %d raw packets, want %d", len(raw), c.m)
	}
	size := len(raw[0])
	for i, p := range raw {
		if len(p) != size {
			return 0, fmt.Errorf("erasure: raw packet %d has %d bytes, want %d", i, len(p), size)
		}
	}
	return size, nil
}

// Encode expands raw into cooked packets. Every raw packet must have the
// same length. The returned packets share one backing arena; the first m
// are copies of the raw packets (systematic property). Parity rows are
// computed in parallel above the work cutover.
func (c *Coder) Encode(raw [][]byte) ([][]byte, error) {
	size, err := c.checkRaw(raw)
	if err != nil {
		return nil, err
	}
	cooked := allocPackets(c.n, size)
	// The top m×m block of the systematic dispersal matrix is the
	// identity, so the clear-text prefix is a straight copy.
	for i := 0; i < c.m; i++ {
		copy(cooked[i], raw[i])
	}
	parityRows := c.n - c.m
	forEachRow(parityRows, parityRows*size, func(i int) {
		accumulateRow(cooked[c.m+i], c.dispersal.Row(c.m+i), raw)
	})
	return cooked, nil
}

// EncodeParity computes only the redundancy packets — cooked indices
// m..n-1 — skipping the systematic clear-text prefix entirely. It backs
// lazy plan encoding: a transmission plan whose receiver never asks past
// the clear prefix pays for no GF(2^8) work at all. The returned packets
// share one backing arena (the slice is empty when n == m).
func (c *Coder) EncodeParity(raw [][]byte) ([][]byte, error) {
	size, err := c.checkRaw(raw)
	if err != nil {
		return nil, err
	}
	rows := c.n - c.m
	parity := allocPackets(rows, size)
	forEachRow(rows, rows*size, func(i int) {
		accumulateRow(parity[i], c.dispersal.Row(c.m+i), raw)
	})
	codecMetrics.parityRows.Add(int64(rows))
	return parity, nil
}

// EncodeParityRow computes a single redundancy packet — cooked index
// m+row — without touching the rest of the parity tail. It backs
// row-granular lazy plan encoding: with the cooked-frame cache in front,
// serving one redundancy frame costs exactly one row of GF(2^8) work
// instead of materializing the whole generation, and a row evicted from
// the frame cache re-cooks alone.
func (c *Coder) EncodeParityRow(raw [][]byte, row int) ([]byte, error) {
	size, err := c.checkRaw(raw)
	if err != nil {
		return nil, err
	}
	if row < 0 || row >= c.n-c.m {
		return nil, fmt.Errorf("erasure: parity row %d outside [0, %d)", row, c.n-c.m)
	}
	out := make([]byte, size)
	accumulateRow(out, c.dispersal.Row(c.m+row), raw)
	codecMetrics.parityRows.Add(1)
	return out, nil
}

// EncodeInto is the allocation-free variant of Encode for hot transmission
// loops: cooked must contain n slices of the raw packet size.
func (c *Coder) EncodeInto(cooked, raw [][]byte) error {
	size, err := c.checkRaw(raw)
	if err != nil {
		return err
	}
	if len(cooked) != c.n {
		return fmt.Errorf("erasure: got %d cooked buffers, want %d", len(cooked), c.n)
	}
	for i := 0; i < c.n; i++ {
		if len(cooked[i]) != size {
			return fmt.Errorf("erasure: cooked buffer %d has %d bytes, want %d", i, len(cooked[i]), size)
		}
	}
	for i := 0; i < c.m; i++ {
		copy(cooked[i], raw[i])
	}
	parityRows := c.n - c.m
	forEachRow(parityRows, parityRows*size, func(i int) {
		dst := cooked[c.m+i]
		for j := range dst {
			dst[j] = 0
		}
		accumulateRow(dst, c.dispersal.Row(c.m+i), raw)
	})
	return nil
}

// Received is one intact cooked packet tagged with its index in the cooked
// sequence (0-based). Corrupted packets must simply not be presented.
type Received struct {
	Index int
	Data  []byte
}

// bitset256 tracks which of the MaxCooked+1 possible cooked indices have
// been seen; it replaces a map in Decode's per-call hot path.
type bitset256 [4]uint64

func (b *bitset256) testAndSet(i int) bool {
	w, mask := i>>6, uint64(1)<<(i&63)
	old := b[w]&mask != 0
	b[w] |= mask
	return old
}

// Decode reconstructs the m raw packets from any m (or more) intact cooked
// packets. Extra packets beyond m are ignored; which m are used is an
// implementation detail. Decode prefers clear-text packets (index < m)
// because they require no matrix work — the "saving recovering effort"
// property of the systematic construction. The returned packets share one
// backing arena and do not alias the received data.
func (c *Coder) Decode(received []Received) ([][]byte, error) {
	if len(received) < c.m {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrShortSet, len(received), c.m)
	}
	size := -1
	var seen bitset256
	// Partition into clear-text and redundant packets, preferring clear.
	chosen := make([]Received, 0, c.m)
	var redundant []Received
	for _, r := range received {
		if r.Index < 0 || r.Index >= c.n {
			return nil, fmt.Errorf("erasure: cooked index %d out of [0, %d)", r.Index, c.n)
		}
		if seen.testAndSet(r.Index) {
			return nil, fmt.Errorf("%w: index %d", ErrDuplicateIndex, r.Index)
		}
		if size == -1 {
			size = len(r.Data)
		} else if len(r.Data) != size {
			return nil, fmt.Errorf("erasure: packet %d has %d bytes, want %d", r.Index, len(r.Data), size)
		}
		if r.Index < c.m {
			chosen = append(chosen, r)
		} else {
			redundant = append(redundant, r)
		}
	}
	for _, r := range redundant {
		if len(chosen) == c.m {
			break
		}
		chosen = append(chosen, r)
	}
	if len(chosen) > c.m {
		chosen = chosen[:c.m]
	}
	if len(chosen) < c.m {
		return nil, fmt.Errorf("%w: only %d distinct indices", ErrShortSet, len(chosen))
	}

	raw := allocPackets(c.m, size)

	// Fast path: all chosen packets are clear text — the arena views are
	// filled by straight copies, no matrix work at all.
	if allClear := chosen[len(chosen)-1].Index < c.m; allClear {
		for _, r := range chosen {
			copy(raw[r.Index], r.Data)
		}
		return raw, nil
	}

	// Sort the chosen rows: the reconstruction raw = inv(sub(rows)) ×
	// data(rows) is invariant under permuting the rows together with
	// their data, and a canonical ascending order lets repeated
	// retransmission patterns share one cached inversion.
	sort.Slice(chosen, func(i, j int) bool { return chosen[i].Index < chosen[j].Index })
	rows := make([]int, c.m)
	data := make([][]byte, c.m)
	for i, r := range chosen {
		rows[i] = r.Index
		data[i] = r.Data
	}
	inv, err := c.invertForRows(rows)
	if err != nil {
		return nil, err
	}
	forEachRow(c.m, c.m*size, func(i int) {
		accumulateRow(raw[i], inv.Row(i), data)
	})
	return raw, nil
}

// Split cuts payload into m packets of packetSize bytes, zero-padding the
// final packet. It returns an error when the payload does not fit.
func Split(payload []byte, m, packetSize int) ([][]byte, error) {
	if m < 1 || packetSize < 1 {
		return nil, fmt.Errorf("erasure: split needs m >= 1 and packetSize >= 1, got m=%d size=%d", m, packetSize)
	}
	if len(payload) > m*packetSize {
		return nil, fmt.Errorf("erasure: payload %d bytes exceeds %d packets × %d bytes", len(payload), m, packetSize)
	}
	raw := allocPackets(m, packetSize)
	for i := 0; i < m; i++ {
		lo := i * packetSize
		if lo < len(payload) {
			hi := lo + packetSize
			if hi > len(payload) {
				hi = len(payload)
			}
			copy(raw[i], payload[lo:hi])
		}
	}
	return raw, nil
}

// Join is the inverse of Split: it concatenates raw packets and trims the
// result to originalLen bytes.
func Join(raw [][]byte, originalLen int) ([]byte, error) {
	total := 0
	for _, p := range raw {
		total += len(p)
	}
	if originalLen < 0 || originalLen > total {
		return nil, fmt.Errorf("erasure: original length %d outside [0, %d]", originalLen, total)
	}
	out := make([]byte, 0, total)
	for _, p := range raw {
		out = append(out, p...)
	}
	return out[:originalLen], nil
}

// PacketsFor returns the number of raw packets M = ceil(docSize/packetSize),
// the ⌈sD/sp⌉ of §4.2.
func PacketsFor(docSize, packetSize int) int {
	if packetSize <= 0 {
		panic("erasure: non-positive packet size")
	}
	if docSize <= 0 {
		return 1
	}
	return (docSize + packetSize - 1) / packetSize
}
