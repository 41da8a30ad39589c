package transport

import (
	"testing"

	"mobweb/internal/channel"
	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/obs"
)

// progressLog records a fetch's OnProgress events.
type progressLog struct{ events []Progress }

func (l *progressLog) hook(opts FetchOptions) FetchOptions {
	opts.OnProgress = func(p Progress) { l.events = append(l.events, p) }
	return opts
}

// firstIntact returns the first intact frame's event.
func (l *progressLog) firstIntact(t *testing.T) Progress {
	t.Helper()
	for _, p := range l.events {
		if p.Intact {
			return p
		}
	}
	t.Fatal("no intact frame reported")
	return Progress{}
}

// checkExactlyOnce asserts that every unit appeared in NewUnits exactly
// once, only on intact frames, and that together they are exactly the
// fetch's rendered units with the same text.
func (l *progressLog) checkExactlyOnce(t *testing.T, res *FetchResult) {
	t.Helper()
	if res == nil || res.Body == nil {
		t.Fatal("fetch did not reconstruct")
	}
	delivered := make(map[core.SegmentMeta]string)
	for i, p := range l.events {
		if len(p.NewUnits) > 0 && !p.Intact {
			t.Errorf("event %d: new units on a corrupt frame", i)
		}
		for _, u := range p.NewUnits {
			if _, dup := delivered[u.Segment]; dup {
				t.Errorf("event %d: unit %s delivered twice", i, u.Segment.Label)
			}
			delivered[u.Segment] = u.Text
		}
	}
	if len(delivered) != len(res.Rendered) {
		t.Errorf("%d units delivered progressively, %d rendered at the end", len(delivered), len(res.Rendered))
	}
	for _, u := range res.Rendered {
		if text, ok := delivered[u.Segment]; !ok {
			t.Errorf("rendered unit %s never delivered progressively", u.Segment.Label)
		} else if text != u.Text {
			t.Errorf("unit %s delivered with different text", u.Segment.Label)
		}
	}
}

// checkIncludes asserts that a progress event carries every given unit.
func checkIncludes(t *testing.T, p Progress, units []core.SegmentMeta) {
	t.Helper()
	got := make(map[core.SegmentMeta]bool, len(p.NewUnits))
	for _, u := range p.NewUnits {
		got[u.Segment] = true
	}
	for _, seg := range units {
		if !got[seg] {
			t.Errorf("unit %s available before the fetch was not delivered on the first intact frame", seg.Label)
		}
	}
}

func TestNewUnitsExactlyOnceNoCachingRounds(t *testing.T) {
	model, err := channel.NewBernoulli(0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	client := startServer(t, ServerOptions{Injector: NewModelInjector(model)})
	var log progressLog
	res, err := client.Fetch(log.hook(FetchOptions{
		Doc:       corpus.DraftName,
		LOD:       document.LODParagraph,
		Gamma:     1.2,
		MaxRounds: 40,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 2 {
		t.Fatalf("fetch finished in %d round; the NoCaching reset path needs at least 2", res.Rounds)
	}
	log.checkExactlyOnce(t, res)
}

func TestNewUnitsExactlyOnceAcrossGammaRebase(t *testing.T) {
	model, err := channel.NewBernoulli(0.3, 12)
	if err != nil {
		t.Fatal(err)
	}
	client := startServer(t, ServerOptions{Injector: NewModelInjector(model)})
	tr := obs.NewTrace(0)
	var log progressLog
	res, err := client.Fetch(log.hook(FetchOptions{
		Doc:        corpus.DraftName,
		Gamma:      1.0,
		AdaptGamma: true,
		Caching:    true,
		MaxRounds:  30,
		Trace:      tr,
	}))
	if err != nil {
		t.Fatal(err)
	}
	rebases := 0
	for _, e := range tr.Events() {
		if e.Type == obs.EventRebase {
			rebases++
		}
	}
	if rebases == 0 {
		t.Fatal("adaptive γ never rebased the receiver")
	}
	log.checkExactlyOnce(t, res)
}

func TestNewUnitsExactlyOnceAcrossReconnect(t *testing.T) {
	for _, codec := range []erasure.CodecID{erasure.CodecVandermonde, erasure.CodecFountain} {
		t.Run(codec.String(), func(t *testing.T) {
			client, _ := startChaosServer(t, ServerOptions{}, chaosAcceptancePolicy())
			var log progressLog
			res, err := client.Fetch(log.hook(FetchOptions{
				Doc: corpus.DraftName, Caching: true, MaxRounds: 20, Codec: codec,
			}))
			if err != nil {
				t.Fatal(err)
			}
			if res.Reconnects == 0 {
				t.Fatal("no reconnect happened")
			}
			log.checkExactlyOnce(t, res)
		})
	}
}

func TestNewUnitsExactlyOncePrefetched(t *testing.T) {
	client := startServer(t, ServerOptions{})
	opts := FetchOptions{Doc: corpus.DraftName, LOD: document.LODParagraph, Caching: true}
	if _, err := client.Prefetch(opts, 15); err != nil {
		t.Fatal(err)
	}
	pre := client.prefetched[opts.Doc].rcv
	before := pre.AvailableUnits()
	if len(before) == 0 {
		t.Fatal("prefetch made no unit available")
	}
	// Consume the units as an earlier, failed fetch of this primed
	// receiver would have: the next fetch must still render them.
	pre.TakeNewUnits()
	var log progressLog
	res, err := client.Fetch(log.hook(opts))
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefetchedPackets == 0 {
		t.Fatal("fetch did not use the primed receiver")
	}
	checkIncludes(t, log.firstIntact(t), before)
	log.checkExactlyOnce(t, res)
}

func TestNewUnitsExactlyOnceStoreSeeded(t *testing.T) {
	for _, codec := range []erasure.CodecID{erasure.CodecVandermonde, erasure.CodecFountain} {
		t.Run(codec.String(), func(t *testing.T) {
			addr := startServerAddr(t, ServerOptions{})
			dir := t.TempDir()
			opts := FetchOptions{Doc: corpus.DraftName, LOD: document.LODParagraph, Caching: true, Codec: codec}

			c1 := dialWithStore(t, addr, dir)
			if _, err := c1.Prefetch(opts, 30); err != nil {
				t.Fatal(err)
			}
			c1.Close()
			c1.Store.Close()

			c2 := dialWithStore(t, addr, dir)
			seeded, _ := c2.storeSeed(fetchShape(opts))
			if seeded == nil {
				t.Fatal("store held nothing for the document")
			}
			before := seeded.AvailableUnits()
			var log progressLog
			res, err := c2.Fetch(log.hook(opts))
			if err != nil {
				t.Fatal(err)
			}
			if res.StoredPackets == 0 {
				t.Fatal("fetch seeded nothing from the store")
			}
			if len(before) > 0 {
				checkIncludes(t, log.firstIntact(t), before)
			}
			log.checkExactlyOnce(t, res)
		})
	}
}
