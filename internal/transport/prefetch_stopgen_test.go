package transport

import (
	"bufio"
	"net"
	"testing"
	"time"

	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/erasure"
	"mobweb/internal/planner"
)

// TestFountainPrefetchSendsStopgen: a fountain prefetch closes the loop
// per generation like a fetch does. A scripted server over net.Pipe
// streams generation after generation and records every control line;
// each generation the prefetch decoded must get its stopgen before the
// budget stop. Everything is ordered by the pipe, so the test waits on
// events only.
func TestFountainPrefetchSendsStopgen(t *testing.T) {
	pl, err := planner.New(corpusEngine(t), planner.Options{Defaults: core.Config{MaxGeneration: 8}})
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := pl.ResolveFrames(planner.Request{Doc: corpus.DraftName})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	layout := resolved.Plan.FountainLayout(seed)
	if len(layout.Shapes) < 4 {
		t.Fatalf("layout has %d generations, want several", len(layout.Shapes))
	}
	// The script sends 2M frames of each generation in turn; the budget
	// covers the first three generations.
	var order [][2]int
	for g, shape := range layout.Shapes {
		for seq := 0; seq < 2*shape.M; seq++ {
			order = append(order, [2]int{g, seq})
		}
	}
	budget := 2 * (layout.Shapes[0].M + layout.Shapes[1].M + layout.Shapes[2].M)

	cli, srv := net.Pipe()
	defer cli.Close()
	controls := make(chan []Request, 1)
	go func() {
		defer srv.Close()
		r := bufio.NewReader(srv)
		line, err := r.ReadBytes('\n')
		if err != nil {
			t.Error(err)
			return
		}
		if req, err := DecodeRequest(line); err != nil || !req.Prefetch {
			t.Errorf("prefetch request %s: %v", line, err)
			return
		}
		stop := make(chan struct{})
		go func() {
			var got []Request
			defer func() { controls <- got }()
			for {
				line, err := r.ReadBytes('\n')
				if err != nil {
					return
				}
				req, err := DecodeRequest(line)
				if err != nil {
					t.Error(err)
					return
				}
				got = append(got, req)
				if req.Op == "stop" {
					close(stop)
				}
			}
		}()
		w := bufio.NewWriter(srv)
		if WriteJSONLine(w, Response{OK: true, Layout: &layout}) != nil || w.Flush() != nil {
			return
		}
	frames:
		for _, id := range order {
			select {
			case <-stop:
				break frames
			default:
			}
			frame, err := resolved.FountainFrame(seed, id[0], id[1])
			if err != nil {
				t.Error(err)
				return
			}
			if WriteFrame(w, frame) != nil || w.Flush() != nil {
				return
			}
		}
		if WriteEndOfStream(w) == nil {
			w.Flush()
		}
	}()

	client := NewClient(cli)
	client.Timeout = 10 * time.Second
	got, err := client.Prefetch(FetchOptions{Doc: corpus.DraftName, Codec: erasure.CodecFountain, FountainSeed: seed}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if got.Received != budget {
		t.Fatalf("prefetch received %d frames, want its budget %d", got.Received, budget)
	}
	cli.Close()
	lines := <-controls

	stopAt := -1
	stopgen := map[int]int{} // generation -> index of its stopgen
	for i, req := range lines {
		switch req.Op {
		case "stop":
			if stopAt < 0 {
				stopAt = i
			}
		case "stopgen":
			stopgen[req.Gen] = i
		default:
			t.Errorf("unexpected control line %+v", req)
		}
	}
	if stopAt < 0 {
		t.Fatalf("prefetch never sent stop; control lines %+v", lines)
	}
	// The frame that spent the budget may itself complete a generation;
	// the stop then covers it.
	last := order[budget-1][0]
	rcv := client.prefetched[corpus.DraftName].rcv
	decoded := 0
	for g := range layout.Shapes {
		if !rcv.GenerationReconstructible(g) || g == last {
			continue
		}
		decoded++
		if i, ok := stopgen[g]; !ok || i > stopAt {
			t.Errorf("generation %d decoded without a stopgen before the stop; control lines %+v", g, lines)
		}
	}
	if decoded == 0 {
		t.Fatal("prefetch decoded no generation before its last one; the test checks nothing")
	}
}
