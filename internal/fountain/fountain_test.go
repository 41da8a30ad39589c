package fountain

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomSymbols builds k deterministic pseudo-random source symbols.
func randomSymbols(rng *rand.Rand, k, size int) [][]byte {
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, size)
		rng.Read(src[i])
	}
	return src
}

// drain streams packets from enc into dec under Bernoulli loss alpha
// until the decoder completes, returning how many packets were sent.
func drain(t *testing.T, enc *Encoder, dec *Decoder, lossRNG *rand.Rand, alpha float64) int {
	t.Helper()
	sent := 0
	for seq := 0; !dec.Complete(); seq++ {
		if seq > 50*enc.K()+200 {
			t.Fatalf("decoder did not complete after %d seqs (k=%d, received=%d, recovered=%d)",
				seq, enc.K(), dec.Received(), dec.RecoveredCount())
		}
		sent++
		if lossRNG != nil && lossRNG.Float64() < alpha {
			continue
		}
		if _, err := dec.Add(seq, enc.Payload(seq)); err != nil {
			t.Fatalf("Add(%d): %v", seq, err)
		}
	}
	return sent
}

func checkDecoded(t *testing.T, dec *Decoder, src [][]byte) {
	t.Helper()
	for i, want := range src {
		got := dec.Symbol(i)
		if !bytes.Equal(got, want) {
			t.Fatalf("symbol %d: decoded %x want %x", i, got, want)
		}
	}
}

func TestRoundtripNoLoss(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8, 40, 255} {
		rng := rand.New(rand.NewSource(int64(k)))
		src := randomSymbols(rng, k, 64)
		enc, err := NewEncoder(3, 0xfeed, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(3, 0xfeed, k, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		drain(t, enc, dec, nil, 0)
		checkDecoded(t, dec, src)
		if dec.Received() < k {
			t.Fatalf("k=%d completed with only %d packets", k, dec.Received())
		}
	}
}

func TestRoundtripUnderLoss(t *testing.T) {
	for _, alpha := range []float64{0.05, 0.2, 0.4} {
		for _, k := range []int{5, 32, 120} {
			rng := rand.New(rand.NewSource(int64(k)*7 + int64(alpha*100)))
			src := randomSymbols(rng, k, 48)
			weights := make([]float64, k)
			for i := range weights {
				weights[i] = rng.Float64()
			}
			enc, err := NewEncoder(0, 0xabcdef, src, weights)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := NewDecoder(0, 0xabcdef, k, 48, weights)
			if err != nil {
				t.Fatal(err)
			}
			drain(t, enc, dec, rng, alpha)
			checkDecoded(t, dec, src)
			over := float64(dec.Received())/float64(k) - 1
			if over > 0.35 {
				t.Errorf("alpha=%.2f k=%d reception overhead %.1f%% > 35%%", alpha, k, over*100)
			}
		}
	}
}

// TestWeightMismatchIsNotSilent documents that encoder and decoder must
// agree on weights: a mismatched decoder derives different combinations
// and decodes garbage, which is why the layout carries the accrual
// scores both sides derive weights from.
func TestWeightMismatchIsNotSilent(t *testing.T) {
	k := 24
	rng := rand.New(rand.NewSource(9))
	src := randomSymbols(rng, k, 32)
	weights := make([]float64, k)
	for i := range weights {
		weights[i] = float64(i)
	}
	enc, _ := NewEncoder(0, 0x1234, src, weights)
	dec, _ := NewDecoder(0, 0x1234, k, 32, nil) // wrong: uniform
	for seq := 0; seq < 3*k && !dec.Complete(); seq++ {
		dec.Add(seq, enc.Payload(seq))
	}
	if dec.Complete() {
		for i := range src {
			if !bytes.Equal(dec.Symbol(i), src[i]) {
				return // garbage as expected
			}
		}
		t.Fatal("mismatched weights decoded the true source; weights are not binding the spec")
	}
}

func TestDeterministicStream(t *testing.T) {
	k := 17
	rng := rand.New(rand.NewSource(4))
	src := randomSymbols(rng, k, 40)
	w := []float64{1, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 3, 0, 0, 0, 1}
	a, err := NewEncoder(2, 0xc0ffee, src, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEncoder(2, 0xc0ffee, src, w)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewEncoder(2, 0xc0ffef, src, w)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for seq := 0; seq < 64; seq++ {
		pa, pb := a.Payload(seq), b.Payload(seq)
		if !bytes.Equal(pa, pb) {
			t.Fatalf("seq %d: same (seed, gen, seq) produced different payloads", seq)
		}
		if !bytes.Equal(pa, other.Payload(seq)) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestUEPOrdering is the UEP property test: under a fixed loss pattern,
// high-IC symbols must decode no later (on average) than low-IC ones.
// The first quarter of symbols carries all the IC weight; their mean
// first-recovery time, averaged across seeds, must not exceed the
// weightless symbols'.
func TestUEPOrdering(t *testing.T) {
	const k, size = 64, 32
	var sumHigh, sumLow float64
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		src := randomSymbols(rng, k, size)
		weights := make([]float64, k)
		for i := 0; i < k/4; i++ {
			weights[i] = 1
		}
		seed := uint64(0x5eed0000 + trial)
		enc, err := NewEncoder(0, seed, src, weights)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(0, seed, k, size, weights)
		if err != nil {
			t.Fatal(err)
		}
		firstSeen := make([]int, k)
		for i := range firstSeen {
			firstSeen[i] = -1
		}
		step := 0
		for seq := 0; !dec.Complete(); seq++ {
			if seq > 50*k {
				t.Fatalf("trial %d did not complete", trial)
			}
			if rng.Float64() < 0.25 { // fixed seeded loss pattern
				continue
			}
			if _, err := dec.Add(seq, enc.Payload(seq)); err != nil {
				t.Fatal(err)
			}
			step++
			for i := 0; i < k; i++ {
				if firstSeen[i] < 0 && dec.Recovered(i) {
					firstSeen[i] = step
				}
			}
		}
		checkDecoded(t, dec, src)
		var high, low float64
		for i := 0; i < k; i++ {
			if i < k/4 {
				high += float64(firstSeen[i])
			} else {
				low += float64(firstSeen[i])
			}
		}
		sumHigh += high / float64(k/4)
		sumLow += low / float64(k-k/4)
	}
	meanHigh, meanLow := sumHigh/20, sumLow/20
	if meanHigh > meanLow {
		t.Fatalf("UEP violated: high-IC symbols recovered at mean step %.2f, low-IC at %.2f", meanHigh, meanLow)
	}
	t.Logf("mean first-recovery step: high-IC %.2f, low-IC %.2f", meanHigh, meanLow)
}

// TestGaussianFallbackAndSharedInvCache starves the peeling decoder of
// degree-1 packets so completion must go through the Gaussian fallback,
// then decodes the identical loss pattern a second time and checks the
// shared inverse cache served the repeat — the broadcast fast path.
func TestGaussianFallbackAndSharedInvCache(t *testing.T) {
	const k, size = 20, 32
	rng := rand.New(rand.NewSource(11))
	src := randomSymbols(rng, k, size)
	seed := uint64(0xdeadbeef)
	enc, err := NewEncoder(1, seed, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	// White-box: pick seqs whose combinations have degree >= 2 so pure
	// peeling cannot start.
	var seqs []int
	for seq := 0; len(seqs) < k+4 && seq < 100*k; seq++ {
		if idx, _ := enc.spec.combination(seq); len(idx) >= 2 {
			seqs = append(seqs, seq)
		}
	}
	if len(seqs) < k+4 {
		t.Fatalf("only %d degree>=2 seqs found", len(seqs))
	}

	run := func() *Decoder {
		dec, err := NewDecoder(1, seed, k, size, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range seqs {
			if dec.Complete() {
				break
			}
			if _, err := dec.Add(seq, enc.Payload(seq)); err != nil {
				t.Fatal(err)
			}
		}
		if !dec.Complete() {
			t.Fatalf("decoder incomplete after %d degree>=2 packets", len(seqs))
		}
		checkDecoded(t, dec, src)
		return dec
	}

	d1 := run()
	if !d1.UsedGaussian() {
		t.Fatal("expected Gaussian fallback with no degree-1 packets")
	}
	hitsBefore := fountainMetrics.invHits.Value()
	d2 := run()
	if !d2.UsedGaussian() {
		t.Fatal("second decoder should also use Gaussian")
	}
	if fountainMetrics.invHits.Value() <= hitsBefore {
		t.Fatal("identical loss pattern did not hit the shared inverse cache")
	}
}

func TestDuplicateAndLateAdds(t *testing.T) {
	k := 10
	rng := rand.New(rand.NewSource(5))
	src := randomSymbols(rng, k, 16)
	enc, _ := NewEncoder(0, 7, src, nil)
	dec, _ := NewDecoder(0, 7, k, 16, nil)
	for seq := 0; !dec.Complete(); seq++ {
		p := enc.Payload(seq)
		dec.Add(seq, p)
		dec.Add(seq, p) // duplicate must be a no-op
	}
	got := dec.Received()
	dec.Add(1000, enc.Payload(1000)) // post-completion add is a no-op
	if dec.Received() != got {
		t.Fatal("post-completion Add changed received count")
	}
	checkDecoded(t, dec, src)
}

// TestLastRecoveredReportsEachSymbolOnce checks the incremental
// recovery report a receiver keeps its availability bitmap with: across
// every Add — peeling, Gaussian completion, duplicates and late adds —
// LastRecovered names each newly recovered symbol exactly once, and the
// count matches Add's return value.
func TestLastRecoveredReportsEachSymbolOnce(t *testing.T) {
	for _, k := range []int{1, 7, 40} {
		rng := rand.New(rand.NewSource(int64(k)))
		src := randomSymbols(rng, k, 16)
		enc, _ := NewEncoder(1, 9, src, nil)
		dec, _ := NewDecoder(1, 9, k, 16, nil)
		reported := make([]bool, k)
		for seq := 0; seq < 3*k+20; seq++ {
			if rng.Float64() < 0.3 {
				continue
			}
			n, err := dec.Add(seq, enc.Payload(seq))
			if err != nil {
				t.Fatal(err)
			}
			if got := len(dec.LastRecovered()); got != n {
				t.Fatalf("k=%d seq %d: Add recovered %d, LastRecovered lists %d", k, seq, n, got)
			}
			for _, i := range dec.LastRecovered() {
				if reported[i] || !dec.Recovered(i) {
					t.Fatalf("k=%d seq %d: symbol %d reported twice or not recovered", k, seq, i)
				}
				reported[i] = true
			}
			if _, err := dec.Add(seq, enc.Payload(seq)); err != nil || len(dec.LastRecovered()) != 0 {
				t.Fatalf("k=%d seq %d: duplicate Add reported recoveries", k, seq)
			}
		}
		for i := range reported {
			if reported[i] != dec.Recovered(i) {
				t.Fatalf("k=%d: symbol %d recovered=%v but reported=%v", k, i, dec.Recovered(i), reported[i])
			}
		}
	}
}

func TestValidation(t *testing.T) {
	src := [][]byte{{1, 2}, {3, 4}}
	if _, err := NewEncoder(0, 1, nil, nil); err == nil {
		t.Error("empty source accepted")
	}
	if _, err := NewEncoder(0, 1, [][]byte{{1}, {2, 3}}, nil); err == nil {
		t.Error("ragged source accepted")
	}
	if _, err := NewEncoder(0, 1, src, []float64{1}); err == nil {
		t.Error("short weights accepted")
	}
	if _, err := NewEncoder(0, 1, src, []float64{1, -2}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewDecoder(0, 1, 0, 8, nil); err == nil {
		t.Error("k=0 decoder accepted")
	}
	if _, err := NewDecoder(0, 1, 2, 0, nil); err == nil {
		t.Error("size=0 decoder accepted")
	}
	dec, _ := NewDecoder(0, 1, 2, 2, nil)
	if _, err := dec.Add(0, []byte{1}); err == nil {
		t.Error("short payload accepted")
	}
}

// FuzzFountainRoundtrip is the cross-codec equivalence fuzzer required
// by the issue: random geometry, seed and loss pattern; decoded bytes
// must equal the source exactly.
func FuzzFountainRoundtrip(f *testing.F) {
	f.Add(uint8(4), uint8(16), uint64(1), int64(2), uint8(50))
	f.Add(uint8(1), uint8(1), uint64(0), int64(0), uint8(0))
	f.Add(uint8(200), uint8(8), uint64(0xffffffffffffffff), int64(99), uint8(120))
	f.Fuzz(func(t *testing.T, kRaw, sizeRaw uint8, seed uint64, lossSeed int64, alphaRaw uint8) {
		k := int(kRaw)%MaxSourceSymbols + 1
		size := int(sizeRaw)%96 + 1
		alpha := float64(alphaRaw%128) / 256.0 // [0, 0.5)
		rng := rand.New(rand.NewSource(lossSeed))
		src := randomSymbols(rng, k, size)
		weights := make([]float64, k)
		for i := range weights {
			weights[i] = rng.Float64() * 3
		}
		enc, err := NewEncoder(int(lossSeed)&0xffff, seed, src, weights)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(int(lossSeed)&0xffff, seed, k, size, weights)
		if err != nil {
			t.Fatal(err)
		}
		for seq := 0; !dec.Complete(); seq++ {
			if seq > 200*k+400 {
				t.Fatalf("no completion after %d seqs (k=%d alpha=%.2f)", seq, k, alpha)
			}
			if rng.Float64() < alpha {
				continue
			}
			if _, err := dec.Add(seq, enc.Payload(seq)); err != nil {
				t.Fatal(err)
			}
		}
		for i, want := range src {
			if !bytes.Equal(dec.Symbol(i), want) {
				t.Fatalf("symbol %d mismatch", i)
			}
		}
	})
}
