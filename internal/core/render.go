package core

import (
	"slices"
	"strings"
)

// This file is the receiver's progressive-rendering state. The rendering
// manager "renders each organizational unit incrementally at the proper
// position in the browsing window" (§3.3), so the receiver keeps the
// answer to "what can be shown?" current as packets land instead of
// recomputing it per frame: a per-raw-packet availability bitmap, a
// per-unit count of raw packets still missing, and each unit's text,
// built once. Every path that makes raw packets usable — a clear-text
// row, a fixed-rate generation reaching M intact rows, a fountain symbol
// recovered, a store-seeded generation — calls markAvailable, so the
// maintained state always equals a full rescan of the held packets.

// renderState tracks availability of the layout's accrual (paragraph)
// segments. Its size is O(M + accrual segments); a frame that completes
// no unit touches only the raw packet's own coverage list and allocates
// nothing.
type renderState struct {
	accrual []SegmentMeta
	sp      int
	cov     coverage
	// avail marks each raw packet whose bytes are usable.
	avail []bool
	// missing counts, per segment, covering raw packets not yet
	// available; a segment is renderable at zero. ready counts those.
	missing []int32
	ready   int
	// texts caches each renderable segment's text once built.
	texts []string
	// taken marks segments TakeNewUnits already returned. It survives
	// Reset — a reload does not un-render the screen — and Rebase.
	taken []bool
	// fresh lists segments completed since the last TakeNewUnits.
	fresh []int32
	// ic is the accrued information content, recomputed from scratch
	// when icStale so the float sum runs in transmission order and is
	// independent of arrival order.
	ic      float64
	icStale bool
}

// coverage is the layout-derived raw packet → accrual segment index in
// compressed-row form: segs[start[p]:start[p+1]] are the segments whose
// bytes raw packet p carries, ascending.
type coverage struct {
	start []int32
	segs  []int32
	// need is, per segment, how many raw packets it spans (0 when empty).
	need []int32
}

func newCoverage(l Layout) coverage {
	m, sp := l.M(), l.PacketSize
	c := coverage{start: make([]int32, m+1), need: make([]int32, len(l.Accrual))}
	for i, seg := range l.Accrual {
		if seg.Length == 0 {
			continue
		}
		first, last := seg.PermutedOff/sp, (seg.PermutedOff+seg.Length-1)/sp
		c.need[i] = int32(last - first + 1)
		for p := first; p <= last; p++ {
			c.start[p+1]++
		}
	}
	for p := 0; p < m; p++ {
		c.start[p+1] += c.start[p]
	}
	c.segs = make([]int32, c.start[m])
	next := slices.Clone(c.start[:m])
	for i, seg := range l.Accrual {
		if seg.Length == 0 {
			continue
		}
		for p := seg.PermutedOff / sp; p <= (seg.PermutedOff+seg.Length-1)/sp; p++ {
			c.segs[next[p]] = int32(i)
			next[p]++
		}
	}
	return c
}

func newRenderState(l Layout) renderState {
	n := len(l.Accrual)
	v := renderState{
		accrual: l.Accrual,
		sp:      l.PacketSize,
		cov:     newCoverage(l),
		avail:   make([]bool, l.M()),
		missing: make([]int32, n),
		texts:   make([]string, n),
		taken:   make([]bool, n),
		fresh:   make([]int32, 0, n),
	}
	v.reset()
	return v
}

// reset returns the state to "nothing held": only empty segments are
// renderable. Taken marks are kept.
func (v *renderState) reset() {
	clear(v.avail)
	clear(v.texts)
	copy(v.missing, v.cov.need)
	v.freshAll()
	v.ready = len(v.fresh)
	v.ic, v.icStale = 0, true
}

// freshAll queues every renderable segment for the next TakeNewUnits.
func (v *renderState) freshAll() {
	v.fresh = v.fresh[:0]
	for i, n := range v.missing {
		if n == 0 {
			v.fresh = append(v.fresh, int32(i))
		}
	}
}

// markAvailable records raw packet p as usable and completes every
// segment it was the last missing packet of.
func (v *renderState) markAvailable(p int) {
	if v.avail[p] {
		return
	}
	v.avail[p] = true
	for _, s := range v.cov.segs[v.cov.start[p]:v.cov.start[p+1]] {
		v.missing[s]--
		if v.missing[s] == 0 {
			v.fresh = append(v.fresh, s)
			v.ready++
			v.icStale = true
		}
	}
}

// spanAvailable reports whether every raw packet under an arbitrary
// segment is usable.
func (v *renderState) spanAvailable(seg SegmentMeta) bool {
	if seg.Length == 0 {
		return true
	}
	for p := seg.PermutedOff / v.sp; p <= (seg.PermutedOff+seg.Length-1)/v.sp; p++ {
		if p >= len(v.avail) || !v.avail[p] {
			return false
		}
	}
	return true
}

// inheritTaken carries the taken marks of a receiver this one was
// rebased from, for segments both layouts describe identically.
func (v *renderState) inheritTaken(old *renderState) {
	if len(old.accrual) != len(v.accrual) {
		return
	}
	for i, seg := range v.accrual {
		if old.taken[i] && old.accrual[i] == seg {
			v.taken[i] = true
		}
	}
}

// InfoContent returns the accrued information content: the score sum of
// all paragraph-level units whose bytes are fully available. Once every
// generation is reconstructible this is 1 (the document is complete).
// It is a field read unless a unit completed since the last call; then
// one pass over the accrual scores re-sums them in transmission order.
func (r *Receiver) InfoContent() float64 {
	v := &r.view
	if v.icStale {
		total := 0.0
		for i, seg := range v.accrual {
			if v.missing[i] == 0 {
				total += seg.Score
			}
		}
		v.ic, v.icStale = total, false
	}
	return v.ic
}

// AvailableUnits returns the paragraph segments whose content is fully
// available, in transmission order — exactly what the rendering manager
// can already display.
func (r *Receiver) AvailableUnits() []SegmentMeta {
	if r.view.ready == 0 {
		return nil
	}
	out := make([]SegmentMeta, 0, r.view.ready)
	for i, seg := range r.view.accrual {
		if r.view.missing[i] == 0 {
			out = append(out, seg)
		}
	}
	return out
}

// UnitText extracts a segment's text from available packets. It returns
// ok=false when the segment is not yet fully available.
func (r *Receiver) UnitText(seg SegmentMeta) (string, bool) {
	if !r.view.spanAvailable(seg) {
		return "", false
	}
	return r.extract(seg)
}

// extract copies an available segment's bytes out of the raw packets.
func (r *Receiver) extract(seg SegmentMeta) (string, bool) {
	sp := r.layout.PacketSize
	var b strings.Builder
	b.Grow(seg.Length)
	for off := 0; off < seg.Length; {
		pos := seg.PermutedOff + off
		within := pos % sp
		chunk := min(sp-within, seg.Length-off)
		data, ok := r.rawBytes(pos / sp)
		if !ok {
			return "", false
		}
		b.Write(data[within : within+chunk])
		off += chunk
	}
	return b.String(), true
}

// unitText returns accrual segment i's text, building and caching it on
// first use. The segment must be available.
func (r *Receiver) unitText(i int) (string, bool) {
	v := &r.view
	if v.texts[i] != "" || v.accrual[i].Length == 0 {
		return v.texts[i], true
	}
	text, ok := r.extract(v.accrual[i])
	if ok {
		v.texts[i] = text
	}
	return text, ok
}

// RenderedUnit pairs an available unit with its text, for progressive
// rendering by a client ("the client renders each organizational unit
// incrementally at the proper position in the browsing window", §3.3).
type RenderedUnit struct {
	// Segment is the unit's layout segment.
	Segment SegmentMeta
	// Text is the unit's body text.
	Text string
}

// Render returns every fully-available unit with its text, in
// transmission order.
func (r *Receiver) Render() []RenderedUnit {
	if r.view.ready == 0 {
		return nil
	}
	out := make([]RenderedUnit, 0, r.view.ready)
	for i, seg := range r.view.accrual {
		if r.view.missing[i] != 0 {
			continue
		}
		if text, ok := r.unitText(i); ok {
			out = append(out, RenderedUnit{Segment: seg, Text: text})
		}
	}
	return out
}

// TakeNewUnits returns the units that became fully available since the
// last call and were not returned before, in transmission order, or nil
// when there are none. Over a receiver's life — across Reset, and
// carried over by Rebase — every unit is returned at most once; units
// available before the first call (a prefetched or store-seeded
// receiver) come out on the first call. It does no work beyond the new
// units themselves, so a client can call it per frame.
//
//mobweb:hot per-frame progressive-render delta of the client receive loop
func (r *Receiver) TakeNewUnits() []RenderedUnit {
	v := &r.view
	var out []RenderedUnit
	slices.Sort(v.fresh)
	kept := 0
	for _, s := range v.fresh {
		if v.taken[s] {
			continue
		}
		text, ok := r.unitText(int(s))
		if !ok {
			v.fresh[kept] = s // retry on the next call
			kept++
			continue
		}
		v.taken[s] = true
		out = append(out, RenderedUnit{Segment: v.accrual[s], Text: text}) //lint:allow hotalloc (only on frames that complete units; the caller keeps the slice)
	}
	v.fresh = v.fresh[:kept]
	return out
}

// RewindNewUnits forgets which units TakeNewUnits returned, so the next
// call returns every available unit again — for a new fetch adopting a
// receiver an earlier one already rendered from.
func (r *Receiver) RewindNewUnits() {
	clear(r.view.taken)
	r.view.freshAll()
}
