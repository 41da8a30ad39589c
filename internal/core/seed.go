package core

import (
	"fmt"

	"mobweb/internal/erasure"
)

// This file is the receiver's persistence seam: the accessors a
// packet store needs to drain a receiver's state to disk, and the
// seeding entry points that refill a fresh receiver from stored state
// after a process restart — so a resumed fetch opens with a Have list
// instead of refetching bytes the radio already delivered.

// Packet returns the held intact cooked payload for a sequence number
// (packed (gen, seq) under the fountain codec). The returned slice is
// the receiver's own storage and must not be modified.
func (r *Receiver) Packet(seq int) ([]byte, bool) {
	payload, ok := r.intact[seq]
	return payload, ok
}

// DecodedGeneration returns generation g's raw packets, decoding (and
// memoizing) on first use. It errors while the generation is not yet
// reconstructible. The returned slices are shared with the memo and
// must not be modified.
func (r *Receiver) DecodedGeneration(g int) ([][]byte, error) {
	if g < 0 || g >= len(r.layout.Shapes) {
		return nil, fmt.Errorf("core: generation %d of %d", g, len(r.layout.Shapes))
	}
	if !r.GenerationReconstructible(g) {
		return nil, ErrNotReconstructible
	}
	return r.decodeGeneration(g)
}

// DoneGenerations lists the reconstructible generations in ascending
// order — what a resuming client reports so the transmitter spends no
// air time on generations it can already decode.
func (r *Receiver) DoneGenerations() []int {
	var out []int
	for g := range r.layout.Shapes {
		if r.GenerationReconstructible(g) {
			out = append(out, g)
		}
	}
	return out
}

// SeedDecodedGeneration installs generation g's raw packets wholesale —
// the restart path, where a persistent store holds generations decoded
// in a previous process life. raw must be exactly the generation's M
// packets of the layout's packet size.
//
// Under the fixed-rate systematic codec the raw packets are the
// generation's clear-prefix cooked rows verbatim, so they re-enter as
// held packets too: the Have list then covers them and a server
// honoring DoneGens or Have sends nothing for this generation. Under
// the fountain codec the raw symbols correspond to no particular wire
// packet; the generation is marked seeded-complete instead, and the
// client's stopgen/DoneGens feedback keeps the transmitter off it.
func (r *Receiver) SeedDecodedGeneration(g int, raw [][]byte) error {
	if g < 0 || g >= len(r.layout.Shapes) {
		return fmt.Errorf("core: generation %d of %d", g, len(r.layout.Shapes))
	}
	shape := r.layout.Shapes[g]
	if len(raw) != shape.M {
		return fmt.Errorf("core: generation %d seed has %d raw packets, want %d", g, len(raw), shape.M)
	}
	for i, p := range raw {
		if len(p) != r.layout.PacketSize {
			return fmt.Errorf("core: generation %d raw packet %d is %d bytes, want %d",
				g, i, len(p), r.layout.PacketSize)
		}
	}
	own := make([][]byte, len(raw))
	for i, p := range raw {
		own[i] = append([]byte(nil), p...)
	}
	if r.layout.Codec == erasure.CodecFountain {
		if r.seeded == nil {
			r.seeded = make([]bool, len(r.layout.Shapes))
		}
		r.decoded[g] = own
		r.seeded[g] = true
		for i := r.rawOff[g]; i < r.rawOff[g+1]; i++ {
			r.view.markAvailable(i)
		}
		return nil
	}
	for i, p := range own {
		if err := r.Add(r.cookedOff[g]+i, p); err != nil {
			return err
		}
	}
	r.decoded[g] = own
	return nil
}

// seededGen reports whether generation g was installed wholesale by
// SeedDecodedGeneration (fountain only; the fixed-rate path re-enters
// seeds as ordinary held packets).
func (r *Receiver) seededGen(g int) bool {
	return r.seeded != nil && r.seeded[g]
}
