package fountain

import (
	"fmt"
	"sort"

	"mobweb/internal/gf256"
)

// pendRow is a received cooked packet reduced to its residual equation:
// the GF(2^8) combination of still-unrecovered source symbols it
// constrains. Residuals are order-independent — subtracting recovered
// symbols commutes — so a pendRow's content is a pure function of its
// seq and the decoder's recovered set, which is what makes the Gaussian
// inverse cacheable across decoders seeing the same loss pattern.
type pendRow struct {
	seq    int
	idx    []int  // residual symbol indices, sorted ascending
	coeffs []byte // aligned with idx
	data   []byte // owned residual payload
}

// Decoder reconstructs one generation's source symbols from any
// sufficiently large subset of the cooked stream. Add packets as they
// arrive; peeling recovers symbols incrementally (driving progressive
// IC accrual), and a Gaussian fallback finishes off loss patterns that
// stall belief propagation. Not safe for concurrent use; the owning
// Receiver serializes access.
type Decoder struct {
	spec      *spec
	size      int
	recovered [][]byte // per source symbol, nil until recovered
	nRec      int
	pending   []pendRow
	seen      map[int]bool
	// recent lists the symbols the latest Add recovered, reusing its
	// backing array so reporting them allocates nothing per packet.
	recent    []int
	received  int // distinct useful seqs consumed before completion
	usedGauss bool
	complete  bool
}

// NewDecoder builds the decoding side of generation gen's stream. k,
// size, seed and weights must match the encoder exactly; the receiver
// derives them from the layout, the same place the server derived them.
func NewDecoder(gen int, seed uint64, k, size int, weights []float64) (*Decoder, error) {
	if size <= 0 {
		return nil, fmt.Errorf("fountain: symbol size %d", size)
	}
	sp, err := newSpec(gen, seed, k, weights)
	if err != nil {
		return nil, err
	}
	return &Decoder{
		spec:      sp,
		size:      size,
		recovered: make([][]byte, k),
		seen:      make(map[int]bool, k+k/4),
	}, nil
}

// K returns the number of source symbols.
func (d *Decoder) K() int { return d.spec.k }

// SymbolSize returns the payload size in bytes.
func (d *Decoder) SymbolSize() int { return d.size }

// Complete reports whether every source symbol has been recovered.
func (d *Decoder) Complete() bool { return d.complete }

// Recovered reports whether source symbol i has been recovered yet.
func (d *Decoder) Recovered(i int) bool {
	return i >= 0 && i < len(d.recovered) && d.recovered[i] != nil
}

// RecoveredCount returns how many source symbols are recovered so far.
func (d *Decoder) RecoveredCount() int { return d.nRec }

// LastRecovered returns the source symbol indices the most recent Add
// recovered, in recovery order — what a receiver needs to keep its
// per-symbol availability current without rescanning all k symbols.
// The slice is reused by the next Add; callers must not keep it.
func (d *Decoder) LastRecovered() []int { return d.recent }

// Received returns how many distinct cooked packets were consumed
// before completion; received − k is the reception overhead.
func (d *Decoder) Received() int { return d.received }

// UsedGaussian reports whether completion needed the Gaussian fallback.
func (d *Decoder) UsedGaussian() bool { return d.usedGauss }

// Symbol returns recovered source symbol i, or nil if not yet
// recovered. The slice is shared with the decoder; callers must not
// mutate it.
func (d *Decoder) Symbol(i int) []byte {
	if i < 0 || i >= len(d.recovered) {
		return nil
	}
	return d.recovered[i]
}

// Add consumes cooked packet seq and returns how many source symbols it
// newly recovered. Duplicate seqs and packets arriving after completion
// are no-ops. The payload is copied; the caller keeps ownership.
func (d *Decoder) Add(seq int, payload []byte) (int, error) {
	if len(payload) != d.size {
		return 0, fmt.Errorf("fountain: payload %d bytes, want %d", len(payload), d.size)
	}
	d.recent = d.recent[:0]
	if d.complete || d.seen[seq] {
		return 0, nil
	}
	d.seen[seq] = true
	d.received++
	fountainMetrics.packetsConsumed.Inc()

	idx, coeffs := d.spec.combination(seq)
	row := pendRow{
		seq:    seq,
		idx:    make([]int, 0, len(idx)),
		coeffs: make([]byte, 0, len(idx)),
		data:   append([]byte(nil), payload...),
	}
	for i, j := range idx {
		if d.recovered[j] != nil {
			gf256.MulAddSlice(coeffs[i], row.data, d.recovered[j])
			continue
		}
		row.idx = append(row.idx, j)
		row.coeffs = append(row.coeffs, coeffs[i])
	}

	before := d.nRec
	switch len(row.idx) {
	case 0:
		fountainMetrics.packetsRedundant.Inc()
	case 1:
		d.recoverFrom(row)
	default:
		d.pending = append(d.pending, row)
	}
	if !d.complete && d.nRec < d.spec.k && len(d.pending) >= d.spec.k-d.nRec {
		d.tryGaussian()
	}
	d.checkComplete()
	return d.nRec - before, nil
}

// recoverFrom resolves a residual degree-1 row into its source symbol
// and ripples the recovery through the pending set, peeling further
// rows down to degree 1 as it goes.
func (d *Decoder) recoverFrom(row pendRow) {
	work := []pendRow{row}
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		j := r.idx[0]
		if d.recovered[j] != nil {
			continue
		}
		sym := make([]byte, d.size)
		gf256.MulSlice(gf256.Inv(r.coeffs[0]), sym, r.data)
		d.recovered[j] = sym
		d.recent = append(d.recent, j)
		d.nRec++
		fountainMetrics.peelRecovered.Inc()

		// Substitute the new symbol into every pending row that uses it.
		kept := d.pending[:0]
		for _, p := range d.pending {
			pos := sort.SearchInts(p.idx, j)
			if pos < len(p.idx) && p.idx[pos] == j {
				gf256.MulAddSlice(p.coeffs[pos], p.data, sym)
				p.idx = append(p.idx[:pos], p.idx[pos+1:]...)
				p.coeffs = append(p.coeffs[:pos], p.coeffs[pos+1:]...)
			}
			switch len(p.idx) {
			case 0:
				fountainMetrics.packetsRedundant.Inc()
			case 1:
				work = append(work, p)
			default:
				kept = append(kept, p)
			}
		}
		d.pending = kept
	}
}

// tryGaussian attempts to solve the residual system outright: if the
// pending rows span the remaining unknowns, select an invertible square
// submatrix (memoized in the shared LRU by loss pattern), invert it
// once, and recover every outstanding symbol via the GF(2^8) kernels.
func (d *Decoder) tryGaussian() {
	unknowns := make([]int, 0, d.spec.k-d.nRec)
	for j, sym := range d.recovered {
		if sym == nil {
			unknowns = append(unknowns, j)
		}
	}
	u := len(unknowns)
	if u == 0 || len(d.pending) < u {
		return
	}
	col := make(map[int]int, u)
	for c, j := range unknowns {
		col[j] = c
	}
	// Dense residual coefficient rows over the unknown columns.
	dense := make([][]byte, len(d.pending))
	for i, p := range d.pending {
		dr := make([]byte, u)
		for t, j := range p.idx {
			dr[col[j]] = p.coeffs[t]
		}
		dense[i] = dr
	}

	entry := sharedInv.lookup(d.spec, d.seen, d.recovered)
	if entry == nil {
		rowSel, inv := solveDense(dense)
		if inv == nil {
			fountainMetrics.gaussStalls.Inc()
			return
		}
		seqs := make([]int, u)
		for t, ri := range rowSel {
			seqs[t] = d.pending[ri].seq
		}
		entry = &invEntry{seqs: seqs, inv: inv}
		sharedInv.store(d.spec, d.seen, d.recovered, entry)
	}

	bySeq := make(map[int]int, len(d.pending))
	for i, p := range d.pending {
		bySeq[p.seq] = i
	}
	dataRows := make([][]byte, u)
	for t, seq := range entry.seqs {
		i, ok := bySeq[seq]
		if !ok {
			// Cache geometry drifted from this decoder's pending set
			// (cannot happen when keys match, but fail safe).
			fountainMetrics.gaussStalls.Inc()
			return
		}
		dataRows[t] = d.pending[i].data
	}
	for t, j := range unknowns {
		sym := make([]byte, d.size)
		gf256.MulAddRows(entry.inv.Row(t), sym, dataRows)
		d.recovered[j] = sym
		d.recent = append(d.recent, j)
		d.nRec++
		fountainMetrics.gaussRecovered.Inc()
	}
	d.usedGauss = true
	d.pending = nil
}

// checkComplete finalizes completion accounting exactly once.
func (d *Decoder) checkComplete() {
	if d.complete || d.nRec < d.spec.k {
		return
	}
	d.complete = true
	d.pending = nil
	fountainMetrics.packetsNeeded.Add(int64(d.spec.k))
	over := d.received - d.spec.k
	if over > 0 {
		fountainMetrics.overshootPackets.Add(int64(over))
		fountainMetrics.overshootBytes.Add(int64(over) * int64(d.size))
	}
	if d.usedGauss {
		fountainMetrics.gaussDecodes.Inc()
	} else {
		fountainMetrics.peelDecodes.Inc()
	}
}
