package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"mobweb/internal/document"
	"mobweb/internal/trace"
)

// progressiveFrames builds a kib-KiB document's plan and a seeded arrival
// order of wire frames: every cooked frame shuffled for the fixed-rate
// code, or about 1.6·M frames per generation, interleaved and shuffled,
// for the fountain code.
func progressiveFrames(b *testing.B, kib int, fountain bool) (Layout, [][]byte) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(kib)))
	spec := trace.DocSpec{
		Sections:                max(1, kib/2),
		SubsectionsPerSection:   2,
		ParagraphsPerSubsection: 2,
		SizeBytes:               kib << 10,
		Skew:                    3,
	}
	doc, scores, err := trace.Generate(spec, rng)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: document.LODParagraph})
	if err != nil {
		b.Fatal(err)
	}
	var frames [][]byte
	layout := plan.Layout()
	if !fountain {
		for seq := 0; seq < plan.N(); seq++ {
			frame, err := plan.Frame(seq)
			if err != nil {
				b.Fatal(err)
			}
			frames = append(frames, frame)
		}
	} else {
		const seed = 0x5eed
		layout = plan.FountainLayout(seed)
		for g, s := range layout.Shapes {
			for seq := 0; seq < s.M*8/5+8; seq++ {
				frame, err := plan.FountainFrame(seed, g, seq)
				if err != nil {
					b.Fatal(err)
				}
				frames = append(frames, frame)
			}
		}
	}
	rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	return layout, frames
}

// BenchmarkReceiverProgressive is the client's per-frame rendering work
// for one fetch: add every frame of a seeded arrival order and take the
// newly renderable units after each intact one, as the transport's
// receive loop does for OnProgress. It reports ns and allocations per
// frame; one op is one whole fetch.
func BenchmarkReceiverProgressive(b *testing.B) {
	for _, codec := range []string{"vandermonde", "fountain"} {
		for _, kib := range []int{2, 16, 64} {
			b.Run(fmt.Sprintf("%s/%dKiB", codec, kib), func(b *testing.B) {
				layout, frames := progressiveFrames(b, kib, codec == "fountain")
				run := func() *Receiver {
					rcv, err := NewReceiverFromLayout(layout)
					if err != nil {
						b.Fatal(err)
					}
					for _, frame := range frames {
						if _, intact, err := rcv.AddFrame(frame); err != nil {
							b.Fatal(err)
						} else if intact {
							rcv.TakeNewUnits()
						}
					}
					return rcv
				}
				if !run().Reconstructible() {
					b.Fatal("arrival order does not reconstruct the document")
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				n := float64(b.N * len(frames))
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/frame")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/frame")
			})
		}
	}
}
