package core

import (
	"math/rand"
	"slices"
	"testing"

	"mobweb/internal/document"
	"mobweb/internal/trace"
)

// The full-scan oracle below is the receiver's rendering logic as it was
// before the incremental state existed: availability is recomputed from
// the held packets on every call. The property test and the fuzz target
// assert that the maintained state equals it after every mutation.

// oracleAvailable computes, per raw packet, whether its bytes are usable:
// either the packet arrived in clear text, its fountain symbol was
// recovered, or its whole generation is reconstructible.
func oracleAvailable(r *Receiver) []bool {
	avail := make([]bool, r.layout.M())
	rawOff := 0
	for g, shape := range r.layout.Shapes {
		for i := 0; i < shape.M; i++ {
			switch {
			case r.fdec != nil && r.seededGen(g):
				avail[rawOff+i] = true
			case r.fdec != nil:
				avail[rawOff+i] = r.fdec[g].Recovered(i)
			case r.GenerationReconstructible(g):
				avail[rawOff+i] = true
			}
		}
		rawOff += shape.M
	}
	for seq := range r.intact {
		if rawIdx := r.layout.clearRawIndex(seq); rawIdx >= 0 {
			avail[rawIdx] = true
		}
	}
	return avail
}

// oracleSegAvailable reports whether every raw packet covering the
// segment is available.
func oracleSegAvailable(seg SegmentMeta, avail []bool, sp int) bool {
	if seg.Length == 0 {
		return true
	}
	for pkt := seg.PermutedOff / sp; pkt <= (seg.PermutedOff+seg.Length-1)/sp; pkt++ {
		if pkt >= len(avail) || !avail[pkt] {
			return false
		}
	}
	return true
}

// oracleUnits returns the accrual indices of the available units.
func oracleUnits(r *Receiver) []int {
	avail := oracleAvailable(r)
	var out []int
	for i, seg := range r.layout.Accrual {
		if oracleSegAvailable(seg, avail, r.layout.PacketSize) {
			out = append(out, i)
		}
	}
	return out
}

// oracleInfoContent sums the available units' scores in transmission
// order.
func oracleInfoContent(r *Receiver) float64 {
	total := 0.0
	for _, i := range oracleUnits(r) {
		total += r.layout.Accrual[i].Score
	}
	return total
}

// oracleRender returns every available unit with its text.
func oracleRender(r *Receiver) []RenderedUnit {
	var out []RenderedUnit
	for _, i := range oracleUnits(r) {
		seg := r.layout.Accrual[i]
		text, ok := r.extract(seg)
		if !ok {
			continue
		}
		out = append(out, RenderedUnit{Segment: seg, Text: text})
	}
	return out
}

// emissions records what TakeNewUnits returned across one receiver's
// life (and the receivers it was rebased into) since the last rewind.
type emissions struct {
	index map[SegmentMeta]int
	taken map[int]bool // accrual index → returned
	ever  map[int]bool // accrual index → available at some check
}

func newEmissions(t testing.TB, l Layout) *emissions {
	t.Helper()
	e := &emissions{index: make(map[SegmentMeta]int), taken: map[int]bool{}, ever: map[int]bool{}}
	for i, seg := range l.Accrual {
		if _, dup := e.index[seg]; dup {
			t.Fatalf("accrual segment %d duplicates an earlier one", i)
		}
		e.index[seg] = i
	}
	return e
}

// check compares the receiver's maintained state with the oracle and
// takes its new units — before or after Render, so both paths build the
// cached texts.
func (e *emissions) check(t testing.TB, step string, r *Receiver, body []byte, takeFirst bool) {
	t.Helper()
	if want := oracleAvailable(r); !slices.Equal(r.view.avail, want) {
		t.Fatalf("%s: availability %v, oracle %v", step, r.view.avail, want)
	}
	if got, want := r.InfoContent(), oracleInfoContent(r); got != want {
		t.Fatalf("%s: InfoContent %v, oracle %v", step, got, want)
	}
	units := oracleUnits(r)
	var wantSegs []SegmentMeta
	for _, i := range units {
		wantSegs = append(wantSegs, r.layout.Accrual[i])
	}
	if got := r.AvailableUnits(); !slices.Equal(got, wantSegs) {
		t.Fatalf("%s: AvailableUnits %d units, oracle %d", step, len(got), len(wantSegs))
	}
	var delta []RenderedUnit
	if takeFirst {
		delta = r.TakeNewUnits()
	}
	want := oracleRender(r)
	if got := r.Render(); !slices.Equal(got, want) {
		t.Fatalf("%s: Render %d units, oracle %d", step, len(got), len(want))
	}
	for _, u := range want {
		if u.Text != string(body[u.Segment.OrigOff:u.Segment.OrigOff+u.Segment.Length]) {
			t.Fatalf("%s: unit %s text differs from the document", step, u.Segment.Label)
		}
	}
	if !takeFirst {
		delta = r.TakeNewUnits()
	}
	for _, i := range units {
		e.ever[i] = true
	}
	prev := -1
	for _, u := range delta {
		i, ok := e.index[u.Segment]
		switch {
		case !ok:
			t.Fatalf("%s: TakeNewUnits returned a segment outside the layout", step)
		case e.taken[i]:
			t.Fatalf("%s: TakeNewUnits returned unit %d twice", step, i)
		case i <= prev:
			t.Fatalf("%s: TakeNewUnits out of transmission order (%d after %d)", step, i, prev)
		case u.Text != string(body[u.Segment.OrigOff:u.Segment.OrigOff+u.Segment.Length]):
			t.Fatalf("%s: new unit %d text differs from the document", step, i)
		}
		prev = i
		e.taken[i] = true
	}
	if len(e.taken) != len(e.ever) {
		t.Fatalf("%s: %d units taken, %d ever available", step, len(e.taken), len(e.ever))
	}
}

// runIncrementalScenario builds a random document (shape from seed) with
// two plans at different γ and drives one receiver through ops: bytes
// 0-3 perform a Reset, a Rebase onto the other plan, a store seed of one
// generation, or a rewind of the taken units; any other byte delivers a
// random frame, corrupted when below 32. The receiver is checked
// against the oracle after every step.
func runIncrementalScenario(t testing.TB, seed int64, ops []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	spec := trace.DocSpec{
		Sections:                1 + rng.Intn(3),
		SubsectionsPerSection:   1 + rng.Intn(3),
		ParagraphsPerSubsection: 1 + rng.Intn(4),
		Skew:                    1 + rng.Float64()*4,
	}
	spec.SizeBytes = spec.Paragraphs() * (16 + rng.Intn(160))
	doc, scores, err := trace.Generate(spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	lods := document.AllLODs()
	cfg := Config{
		PacketSize:    8 << rng.Intn(4), // 8..64
		LOD:           lods[rng.Intn(len(lods))],
		MaxGeneration: 4 + rng.Intn(28), // several generations on most documents
	}
	var plans [2]*Plan
	for i := range plans {
		cfg.Gamma = 1 + rng.Float64()*1.5
		if plans[i], err = NewPlanWithScores(doc, scores, cfg); err != nil {
			t.Fatal(err)
		}
	}
	fountainSeed := uint64(0)
	if rng.Intn(2) == 0 {
		fountainSeed = 1 + uint64(rng.Int63())
	}
	layoutOf := func(p *Plan) Layout {
		if fountainSeed != 0 {
			return p.FountainLayout(fountainSeed)
		}
		return p.Layout()
	}
	cur := 0
	rcv, err := NewReceiverFromLayout(layoutOf(plans[cur]))
	if err != nil {
		t.Fatal(err)
	}
	body := doc.Body()
	em := newEmissions(t, rcv.Layout())
	em.check(t, "new", rcv, body, false)

	for step, op := range ops {
		plan := plans[cur]
		name := "frame"
		switch op {
		case 0:
			name = "reset"
			rcv.Reset()
		case 1:
			name = "rebase"
			cur = 1 - cur
			if rcv, err = rcv.Rebase(layoutOf(plans[cur])); err != nil {
				t.Fatalf("step %d: rebase: %v", step, err)
			}
		case 2:
			name = "seed"
			g := rng.Intn(plan.Generations())
			if err := rcv.SeedDecodedGeneration(g, plan.gens[g].raw); err != nil {
				t.Fatalf("step %d: seed generation %d: %v", step, g, err)
			}
		case 3:
			name = "rewind"
			rcv.RewindNewUnits()
			em.taken, em.ever = map[int]bool{}, map[int]bool{}
		default:
			var frame []byte
			if fountainSeed != 0 {
				g := rng.Intn(plan.Generations())
				frame, err = plan.FountainFrame(fountainSeed, g, rng.Intn(3*plan.gens[g].coder.M()+4))
			} else {
				frame, err = plan.Frame(rng.Intn(plan.N()))
			}
			if err != nil {
				t.Fatal(err)
			}
			corrupt := op < 32
			if corrupt {
				frame = slices.Clone(frame)
				frame[len(frame)-1] ^= 0x5a
			}
			_, intact, err := rcv.AddFrame(frame)
			if err != nil {
				t.Fatalf("step %d: AddFrame: %v", step, err)
			}
			if intact == corrupt {
				t.Fatalf("step %d: corrupt=%v frame reported intact=%v", step, corrupt, intact)
			}
		}
		em.check(t, name, rcv, body, op&1 == 1)
	}
}

// TestReceiverIncrementalMatchesOracle runs seeded scenarios over both
// codecs, multi-generation layouts and every mutation path. Special
// operations are rare enough that most runs also reach reconstruction.
func TestReceiverIncrementalMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919))
		ops := make([]byte, 80+rng.Intn(240))
		for i := range ops {
			if rng.Intn(24) == 0 {
				ops[i] = byte(rng.Intn(4)) // reset, rebase, seed or rewind
			} else {
				ops[i] = byte(4 + rng.Intn(252))
			}
		}
		runIncrementalScenario(t, seed, ops)
	}
}

// FuzzReceiverIncremental lets the fuzzer pick the document shape, codec
// and operation stream.
func FuzzReceiverIncremental(f *testing.F) {
	f.Add(int64(1), []byte{40, 41, 42, 43, 0, 44, 45, 1, 46, 47, 2, 48, 3, 49, 50})
	f.Add(int64(2), []byte{200, 201, 202, 203, 204, 205, 206, 207, 208, 209, 1, 210, 211})
	f.Add(int64(3), []byte{2, 2, 5, 6, 7, 0, 8, 9, 10, 1, 1, 11})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 400 {
			ops = ops[:400]
		}
		runIncrementalScenario(t, seed, ops)
	})
}
