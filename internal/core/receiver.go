package core

import (
	"errors"
	"fmt"
	"sort"

	"mobweb/internal/erasure"
	"mobweb/internal/fountain"
	"mobweb/internal/obs"
	"mobweb/internal/packet"
)

// Receiver accumulates intact cooked packets for one transmission layout
// and answers the client-side questions of §4.2: how much information
// content has arrived, is the document reconstructible, and what can be
// rendered already. It needs only the Layout — the serializable geometry
// a server sends ahead of the packet stream — because the dispersal
// matrices are pure functions of each generation's (M, N).
//
// A Receiver that persists across retransmission rounds realizes the
// paper's Caching strategy ("cache the intact cooked packets received and
// use them to reconstruct the document when a retransmission occurs");
// calling Reset between rounds realizes NoCaching.
//
// Receiver is not safe for concurrent use; the transport layer owns it
// from a single goroutine.
type Receiver struct {
	layout Layout
	coders []*erasure.Coder
	// fdec holds the per-generation rateless decoders when the layout's
	// codec is fountain; coders is then unused. Packets are tracked in
	// intact under packed (gen, seq) keys so Have lists, persistence and
	// resume stay codec-agnostic.
	fdec   []*fountain.Decoder
	intact map[int][]byte // global cooked seq (or packed fountain seq) → payload
	// perGen counts intact packets per generation for O(1) stall checks.
	perGen []int
	// decoded memoizes each generation's decoded raw packets. Once a
	// generation is reconstructible its decode result is fixed — extra
	// packets can only re-derive the same raw bytes — so the memo is
	// never invalidated by Add, only by Reset.
	decoded [][][]byte
	// seeded marks fountain generations installed wholesale from a
	// persistent store (SeedDecodedGeneration): their raw symbols are in
	// decoded but no wire packets back them, so reconstructibility is
	// answered here rather than by the decoder. Nil until first used.
	seeded []bool
	// trace, when attached via SetTrace, records decode events into the
	// owning fetch's timeline.
	trace *obs.Trace
	// rawOff and cookedOff hold each generation's first raw and cooked
	// index plus a final total, so generation offsets are O(1) reads.
	rawOff, cookedOff []int
	// view is the progressive-rendering state, kept current by every
	// path that makes raw packets usable (render.go).
	view renderState
}

// NewReceiver returns an empty receiver for the plan's layout.
func NewReceiver(plan *Plan) (*Receiver, error) {
	if plan == nil {
		return nil, fmt.Errorf("core: nil plan")
	}
	return NewReceiverFromLayout(plan.Layout())
}

// NewReceiverFromLayout builds a receiver from transmission geometry
// alone, the client side of the live transport.
func NewReceiverFromLayout(layout Layout) (*Receiver, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	r := &Receiver{
		layout:    layout,
		intact:    make(map[int][]byte),
		perGen:    make([]int, len(layout.Shapes)),
		decoded:   make([][][]byte, len(layout.Shapes)),
		rawOff:    make([]int, len(layout.Shapes)+1),
		cookedOff: make([]int, len(layout.Shapes)+1),
	}
	for g, s := range layout.Shapes {
		r.rawOff[g+1] = r.rawOff[g] + s.M
		r.cookedOff[g+1] = r.cookedOff[g] + s.N
	}
	r.view = newRenderState(layout)
	if layout.Codec == erasure.CodecFountain {
		r.fdec = make([]*fountain.Decoder, len(layout.Shapes))
		for i, s := range layout.Shapes {
			weights, err := layout.FountainWeights(i)
			if err != nil {
				return nil, err
			}
			dec, err := fountain.NewDecoder(i, layout.Seed, s.M, layout.PacketSize, weights)
			if err != nil {
				return nil, fmt.Errorf("generation %d: %w", i, err)
			}
			r.fdec[i] = dec
		}
		return r, nil
	}
	r.coders = make([]*erasure.Coder, len(layout.Shapes))
	for i, s := range layout.Shapes {
		coder, err := erasure.Shared(s.M, s.N)
		if err != nil {
			return nil, fmt.Errorf("generation %d: %w", i, err)
		}
		r.coders[i] = coder
	}
	return r, nil
}

// Layout returns the receiver's transmission geometry.
func (r *Receiver) Layout() Layout { return r.layout }

// Add records an intact cooked packet by global sequence number — a
// packed (gen, seq) pair under the fountain codec. Duplicates are
// ignored. The payload is copied.
func (r *Receiver) Add(seq int, payload []byte) error {
	if len(payload) != r.layout.PacketSize {
		return fmt.Errorf("core: payload %d bytes, want %d", len(payload), r.layout.PacketSize)
	}
	if r.fdec != nil {
		return r.addFountain(seq, payload)
	}
	if seq < 0 || seq >= r.layout.N() {
		return fmt.Errorf("core: seq %d outside [0, %d)", seq, r.layout.N())
	}
	if _, dup := r.intact[seq]; dup {
		return nil
	}
	g := r.cookedGen(seq)
	r.intact[seq] = append([]byte(nil), payload...)
	r.perGen[g]++
	m := r.layout.Shapes[g].M
	if local := seq - r.cookedOff[g]; local < m {
		r.view.markAvailable(r.rawOff[g] + local) // a clear-text row
	}
	if r.perGen[g] == m {
		// The generation just became decodable: every raw packet is usable.
		for i := r.rawOff[g]; i < r.rawOff[g+1]; i++ {
			r.view.markAvailable(i)
		}
	}
	return nil
}

// cookedGen returns the generation of an in-range cooked seq.
func (r *Receiver) cookedGen(seq int) int {
	return sort.SearchInts(r.cookedOff, seq+1) - 1
}

// rawGen returns the generation of an in-range raw packet index.
func (r *Receiver) rawGen(rawIdx int) int {
	return sort.SearchInts(r.rawOff, rawIdx+1) - 1
}

// addFountain records a rateless packet under its packed seq and feeds
// the generation's decoder, which recovers source symbols incrementally
// (peeling) and finishes stalled patterns via the Gaussian fallback.
func (r *Receiver) addFountain(packed int, payload []byte) error {
	if packed < 0 {
		return fmt.Errorf("core: packed fountain seq %d negative", packed)
	}
	g, seq := packet.UnpackSeq(packed)
	if g >= len(r.fdec) {
		return fmt.Errorf("core: fountain generation %d of %d", g, len(r.fdec))
	}
	if _, dup := r.intact[packed]; dup {
		return nil
	}
	own := append([]byte(nil), payload...)
	r.intact[packed] = own
	r.perGen[g]++
	wasDone := r.fdec[g].Complete()
	if _, err := r.fdec[g].Add(seq, own); err != nil {
		return err
	}
	// Peeled symbols are usable before the generation completes — this
	// is where UEP pays off, since high-IC symbols peel first.
	for _, i := range r.fdec[g].LastRecovered() {
		r.view.markAvailable(r.rawOff[g] + i)
	}
	if !wasDone && r.fdec[g].Complete() {
		r.trace.Record(obs.Event{Type: obs.EventDecode, Gen: g})
	}
	return nil
}

// AddFrame parses a wire frame in the layout's codec, verifies its CRC,
// and records it when intact. It returns the (packed, for fountain)
// sequence number and whether the packet was intact. Truncated frames
// return an error. The frame buffer may be reused by the caller: Parse
// only borrows it, and Add copies the payload.
//
//mobweb:hot per-frame entry of the client receive loop
func (r *Receiver) AddFrame(frame []byte) (seq int, intact bool, err error) {
	if r.fdec != nil {
		return r.addFountainFrame(frame)
	}
	p, err := packet.Parse(frame)
	if errors.Is(err, packet.ErrCorrupt) {
		return p.Seq, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	if err := r.Add(p.Seq, p.Payload); err != nil {
		return p.Seq, false, err
	}
	return p.Seq, true, nil
}

// addFountainFrame parses a fountain frame. A frame carrying a seed
// other than the layout's belongs to a different stream — it cannot be
// decoded under this receiver's spec — and is reported as an error
// rather than silently dropped, since it means sender and receiver
// disagree about the fetch.
func (r *Receiver) addFountainFrame(frame []byte) (seq int, intact bool, err error) {
	p, err := packet.ParseFountain(frame)
	packed := packet.PackSeq(p.Gen, p.Seq)
	if errors.Is(err, packet.ErrCorrupt) {
		return packed, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	if p.Seed != r.layout.Seed {
		return packed, false, fmt.Errorf("core: fountain seed %#x, layout has %#x", p.Seed, r.layout.Seed)
	}
	if err := r.Add(packed, p.Payload); err != nil {
		return packed, false, err
	}
	return packed, true, nil
}

// IntactCount returns the number of distinct intact packets held.
func (r *Receiver) IntactCount() int { return len(r.intact) }

// Held reports whether the packet with the given sequence number is held
// intact; the transport uses it to request selective retransmission.
func (r *Receiver) Held(seq int) bool {
	_, ok := r.intact[seq]
	return ok
}

// Rebase returns a new receiver for newLayout carrying over every held
// packet that exists under both geometries, supporting adaptive-γ
// transports (§4.4): a plan rebuilt with a different redundancy ratio
// keeps the same body, packet size and generation split, and the
// systematic Vandermonde dispersal row j depends only on (M, j) — row j
// of V·inv(V[0..M]) never reads past the top M×M block — so cooked
// packet j is byte-identical under both plans. Rebase therefore refuses
// geometries that differ in anything besides per-generation N (those
// mean the document itself changed, voiding the cache); held packets
// whose local cooked index exceeds the new generation's N are dropped.
func (r *Receiver) Rebase(newLayout Layout) (*Receiver, error) {
	old := r.layout
	if old.PacketSize != newLayout.PacketSize || old.BodySize != newLayout.BodySize ||
		len(old.Shapes) != len(newLayout.Shapes) {
		return nil, fmt.Errorf("core: rebase geometry mismatch: %d×%dB/%d gens vs %d×%dB/%d gens",
			old.PacketSize, old.BodySize, len(old.Shapes),
			newLayout.PacketSize, newLayout.BodySize, len(newLayout.Shapes))
	}
	if old.Codec != newLayout.Codec {
		// Cooked payloads are codec-specific; nothing held under one
		// codec is a valid packet of the other. The transport starts a
		// fresh receiver instead.
		return nil, fmt.Errorf("core: rebase codec mismatch: %s vs %s", old.Codec, newLayout.Codec)
	}
	for g := range old.Shapes {
		if old.Shapes[g].M != newLayout.Shapes[g].M {
			return nil, fmt.Errorf("core: rebase generation %d raw count %d != %d",
				g, old.Shapes[g].M, newLayout.Shapes[g].M)
		}
	}
	if old.Codec == erasure.CodecFountain {
		if old.Seed != newLayout.Seed {
			// A different seed is a different stream: held combinations
			// would decode under the wrong spec.
			return nil, fmt.Errorf("core: rebase fountain seed %#x != %#x", old.Seed, newLayout.Seed)
		}
		nr, err := NewReceiverFromLayout(newLayout)
		if err != nil {
			return nil, err
		}
		nr.trace = r.trace
		for packed, payload := range r.intact {
			if err := nr.Add(packed, payload); err != nil {
				return nil, err
			}
		}
		nr.view.inheritTaken(&r.view)
		return nr, nil
	}
	nr, err := NewReceiverFromLayout(newLayout)
	if err != nil {
		return nil, err
	}
	nr.trace = r.trace // the rebased receiver keeps feeding the same fetch timeline
	for seq, payload := range r.intact {
		g := r.cookedGen(seq)
		local := seq - r.cookedOff[g]
		if local >= newLayout.Shapes[g].N {
			continue
		}
		if err := nr.Add(nr.cookedOff[g]+local, payload); err != nil {
			return nil, err
		}
	}
	nr.view.inheritTaken(&r.view)
	return nr, nil
}

// Reset discards all cached packets — the NoCaching behaviour between
// retransmission rounds (stock HTTP reload).
func (r *Receiver) Reset() {
	r.intact = make(map[int][]byte)
	for i := range r.perGen {
		r.perGen[i] = 0
	}
	for i := range r.decoded {
		r.decoded[i] = nil
	}
	for i := range r.seeded {
		r.seeded[i] = false
	}
	for i := range r.fdec {
		// Decoders accumulate state monotonically; a reset means a fresh
		// decoder. Geometry was validated at construction, so rebuilding
		// cannot fail.
		weights, _ := r.layout.FountainWeights(i)
		dec, err := fountain.NewDecoder(i, r.layout.Seed, r.layout.Shapes[i].M, r.layout.PacketSize, weights)
		if err != nil {
			panic(fmt.Sprintf("core: reset rebuilt invalid decoder: %v", err))
		}
		r.fdec[i] = dec
	}
	r.view.reset()
}

// decodeGeneration returns generation g's raw packets, decoding on first
// use and serving the memo afterwards. Callers must have checked
// reconstructibility; the memo is sound because a reconstructible
// generation always decodes to the same raw bytes no matter which packet
// subset the codec picks.
func (r *Receiver) decodeGeneration(g int) ([][]byte, error) {
	if r.decoded[g] != nil {
		coreMetrics.memoHits.Inc()
		r.trace.Record(obs.Event{Type: obs.EventDecodeMemo, Gen: g})
		return r.decoded[g], nil
	}
	if r.fdec != nil {
		// The fountain decoder decoded incrementally as packets arrived;
		// completion was checked by the caller, so collect the symbols.
		raw := make([][]byte, r.layout.Shapes[g].M)
		for i := range raw {
			if raw[i] = r.fdec[g].Symbol(i); raw[i] == nil {
				return nil, fmt.Errorf("core: generation %d symbol %d unrecovered", g, i)
			}
		}
		r.decoded[g] = raw
		return raw, nil
	}
	raw, err := r.coders[g].Decode(r.generationIntact(g))
	if err != nil {
		return nil, err
	}
	coreMetrics.decodes.Inc()
	r.trace.Record(obs.Event{Type: obs.EventDecode, Gen: g})
	r.decoded[g] = raw
	return raw, nil
}

// GenerationReconstructible reports whether dispersal group g can be
// decoded: at least M_g intact packets for the fixed-rate code, or a
// completed rateless decoder (packet count alone does not suffice —
// random combinations can be linearly dependent).
func (r *Receiver) GenerationReconstructible(g int) bool {
	if g < 0 || g >= len(r.perGen) {
		return false
	}
	if r.fdec != nil {
		return r.seededGen(g) || r.fdec[g].Complete()
	}
	return r.perGen[g] >= r.layout.Shapes[g].M
}

// Reconstructible reports whether every generation can be decoded — the
// first termination condition of §4.2.
func (r *Receiver) Reconstructible() bool {
	for g := range r.perGen {
		if !r.GenerationReconstructible(g) {
			return false
		}
	}
	return true
}

// generationIntact returns the intact packets belonging to generation g
// as local-index erasure.Received values.
//
// The set is built in ascending local index, never in map order: Decode
// prefers clear rows but fills the remainder with redundant rows in input
// order, so an unordered set would vary the chosen row set — and with it
// the inversion-cache key and the work profile — run to run.
func (r *Receiver) generationIntact(g int) []erasure.Received {
	cookedOff := r.cookedOff[g]
	shape := r.layout.Shapes[g]
	out := make([]erasure.Received, 0, shape.M)
	for local := 0; local < shape.N; local++ {
		if payload, ok := r.intact[cookedOff+local]; ok {
			out = append(out, erasure.Received{Index: local, Data: payload})
		}
	}
	return out
}

// Reconstruct decodes all generations and returns the document body in
// original order. It returns ErrNotReconstructible while packets are
// still missing.
func (r *Receiver) Reconstruct() ([]byte, error) {
	if !r.Reconstructible() {
		return nil, ErrNotReconstructible
	}
	permuted := make([]byte, 0, r.layout.M()*r.layout.PacketSize)
	for g := range r.layout.Shapes {
		raw, err := r.decodeGeneration(g)
		if err != nil {
			return nil, fmt.Errorf("generation %d: %w", g, err)
		}
		for _, pkt := range raw {
			permuted = append(permuted, pkt...)
		}
	}
	permuted = permuted[:r.layout.BodySize]
	out := make([]byte, r.layout.BodySize)
	for _, seg := range r.layout.Ranked {
		copy(out[seg.OrigOff:seg.OrigOff+seg.Length], permuted[seg.PermutedOff:seg.PermutedOff+seg.Length])
	}
	return out, nil
}

// rawBytes returns raw packet rawIdx's bytes from clear text or a decoded
// generation — or, under the fountain codec, from the generation
// decoder's incrementally recovered symbols.
func (r *Receiver) rawBytes(rawIdx int) ([]byte, bool) {
	g := r.rawGen(rawIdx)
	local := rawIdx - r.rawOff[g]
	if r.fdec != nil {
		if r.seededGen(g) {
			return r.decoded[g][local], true
		}
		if sym := r.fdec[g].Symbol(local); sym != nil {
			return sym, true
		}
		return nil, false
	}
	if payload, ok := r.intact[r.cookedOff[g]+local]; ok {
		return payload, true
	}
	if !r.GenerationReconstructible(g) {
		return nil, false
	}
	raw, err := r.decodeGeneration(g)
	if err != nil {
		return nil, false
	}
	return raw[local], true
}

// Missing returns the sequence numbers not yet held intact, which a
// client reports when requesting a selective retransmission. Under the
// fountain codec the seq space is unbounded and "missing" is not a
// meaningful set; it returns nil (clients report Have instead).
func (r *Receiver) Missing() []int {
	if r.fdec != nil {
		return nil
	}
	var out []int
	for seq := 0; seq < r.layout.N(); seq++ {
		if _, ok := r.intact[seq]; !ok {
			out = append(out, seq)
		}
	}
	return out
}

// HaveList returns every held sequence number in ascending order — the
// resume/retransmission Have list. It works for both codecs: fixed-rate
// cooked seqs, or packed (gen, seq) fountain pairs.
func (r *Receiver) HaveList() []int {
	out := make([]int, 0, len(r.intact))
	for seq := range r.intact {
		out = append(out, seq)
	}
	sort.Ints(out)
	return out
}

var _ fmt.Stringer = (*Receiver)(nil)

// String summarizes receiver progress for logs.
func (r *Receiver) String() string {
	return fmt.Sprintf("receiver{intact %d/%d, IC %.3f, reconstructible %v}",
		r.IntactCount(), r.layout.N(), r.InfoContent(), r.Reconstructible())
}
