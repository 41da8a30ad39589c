package transport

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/erasure"
	"mobweb/internal/packet"
)

// transcriptStream is a scripted client on one end of a net.Pipe whose
// other end a server handler owns. It speaks the wire protocol by hand,
// so the server's stream is observed exactly as written: every frame in
// order, plus the end-of-stream marker.
type transcriptStream struct {
	t      *testing.T
	conn   net.Conn
	r      *bufio.Reader
	layout core.Layout
	buf    []byte
}

// openTranscript starts a handler for one piped connection, sends req
// and reads the response header.
func openTranscript(t *testing.T, srv *Server, req Request) *transcriptStream {
	t.Helper()
	cli, end := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer end.Close()
		srv.handle(end)
	}()
	t.Cleanup(func() {
		cli.Close()
		<-done
	})
	// A wedged server fails the test instead of hanging it.
	if err := cli.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	ts := &transcriptStream{t: t, conn: cli, r: bufio.NewReader(cli)}
	ts.send(req)
	line, err := ts.r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if !resp.OK || resp.Layout == nil {
		t.Fatalf("fetch refused: %+v", resp)
	}
	ts.layout = *resp.Layout
	return ts
}

func (ts *transcriptStream) send(req Request) {
	ts.t.Helper()
	if err := WriteJSONLine(ts.conn, req); err != nil {
		ts.t.Fatalf("writing %s request: %v", req.Op, err)
	}
}

// next reads one frame and returns its (gen, seq) id, parsed by the
// layout's codec; end reports the end-of-stream marker. Fixed-rate ids
// carry the global cooked seq, fountain ids the per-generation seq.
func (ts *transcriptStream) next() (gen, seq int, end bool) {
	ts.t.Helper()
	frame, err := ReadFrameInto(ts.r, ts.buf)
	if err != nil {
		ts.t.Fatalf("reading frame: %v", err)
	}
	if frame == nil {
		return 0, 0, true
	}
	ts.buf = frame
	if ts.layout.Codec == erasure.CodecFountain {
		p, err := packet.ParseFountain(frame)
		if err != nil {
			ts.t.Fatalf("parsing fountain frame: %v", err)
		}
		return p.Gen, p.Seq, false
	}
	p, err := packet.Parse(frame)
	if err != nil {
		ts.t.Fatalf("parsing frame: %v", err)
	}
	g, _, err := ts.layout.CookedGeneration(p.Seq)
	if err != nil {
		ts.t.Fatal(err)
	}
	return g, p.Seq, false
}

// transcript accumulates one case's ordered ids for the golden file.
type transcript struct {
	b   strings.Builder
	ids int
}

func (tr *transcript) add(gen, seq int) {
	if tr.ids%16 == 0 {
		tr.b.WriteString("\n ")
	}
	fmt.Fprintf(&tr.b, " %d:%d", gen, seq)
	tr.ids++
}

func transcriptServer(t *testing.T, opts ServerOptions) *Server {
	t.Helper()
	// Generations of at most 8 raw packets give the draft several
	// generations, so round-robin order, DoneGens and per-generation caps
	// all show in the transcript.
	opts.Defaults.MaxGeneration = 8
	srv, err := NewServer(corpusEngine(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestStreamTranscriptGolden pins what the transmitter writes, frame by
// frame, for each stream shape the send path serves: the ordered (gen,
// seq) ids and the end marker. The client side is a script, not the
// real client, so the transcript depends on the server alone.
//
// Regenerate after an intentional change to stream order with:
//
//	go test ./internal/transport/ -run StreamTranscriptGolden -update
func TestStreamTranscriptGolden(t *testing.T) {
	const seed = 7 // pinned fountain seed: the stream does not depend on plan-key hashing
	doc := corpus.DraftName
	cases := []struct {
		name string
		opts ServerOptions
		req  Request
		// stopGenAfter, when > 0, sends a stopgen for generation 0 after
		// that many frames. The server applies it at whichever frame its
		// reader delivers it, so the transcript leaves out generation 0's
		// frames from then on; the others' order does not depend on it.
		stopGenAfter int
	}{
		{name: "fixed-fresh", req: Request{Op: "fetch", Doc: doc}},
		{name: "fixed-have-donegens", req: Request{Op: "fetch", Doc: doc,
			Have: []int{0, 1, 2, 5, 13, 20, 31}, DoneGens: []int{1, 3}}},
		{name: "clear-prefix-only",
			opts: ServerOptions{Capability: NewCapabilityState(CapClearPrefixOnly)},
			req:  Request{Op: "fetch", Doc: doc, Codec: "fountain", Seed: seed}},
		{name: "fountain-have-donegens", req: Request{Op: "fetch", Doc: doc, Codec: "fountain", Seed: seed,
			Have: []int{packet.PackSeq(0, 0), packet.PackSeq(0, 2), packet.PackSeq(2, 1)}, DoneGens: []int{1}}},
		{name: "fountain-stopgen", stopGenAfter: 10,
			req: Request{Op: "fetch", Doc: doc, Codec: "fountain", Seed: seed}},
		{name: "fountain-overshoot-cap", req: Request{Op: "fetch", Doc: doc, Codec: "fountain", Seed: seed}},
	}
	var out strings.Builder
	for _, tc := range cases {
		ts := openTranscript(t, transcriptServer(t, tc.opts), tc.req)
		var tr transcript
		frames, stopped := 0, false
		perGen := make([]int, len(ts.layout.Shapes))
		for {
			g, s, end := ts.next()
			if end {
				break
			}
			frames++
			perGen[g]++
			if !(stopped && g == 0) {
				tr.add(g, s)
			}
			if tc.stopGenAfter > 0 && frames == tc.stopGenAfter {
				ts.send(Request{Op: "stopgen", Gen: 0})
				stopped = true
			}
		}
		if ts.layout.Codec == erasure.CodecFountain {
			for g, shape := range ts.layout.Shapes {
				if cap := fountainOvershootCap(shape.M); perGen[g] > cap {
					t.Errorf("%s: generation %d sent %d frames, over its cap %d", tc.name, g, perGen[g], cap)
				}
			}
			if stopped && perGen[0] >= fountainOvershootCap(ts.layout.Shapes[0].M) {
				t.Errorf("%s: stopgen never took effect: generation 0 ran to its cap", tc.name)
			}
		}
		fmt.Fprintf(&out, "case %s codec=%s gens=%d ids=%d:%s\n  end\n", tc.name, ts.layout.Codec, len(ts.layout.Shapes), tr.ids, tr.b.String())
	}
	got := []byte(out.String())

	golden := filepath.Join("testdata", "stream_transcript.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stream transcript deviates from golden file (%d vs %d bytes); regenerate with -update if the change is intentional",
			len(got), len(want))
	}
}

// TestBroadcastStreamFeedback checks the broadcast subscriber's stream,
// whose order is not deterministic (the shared producer drops frames on
// a full queue): no frame belongs to a generation the client reported
// done, none repeats a packet the client holds, and no generation goes
// over its overshoot cap.
func TestBroadcastStreamFeedback(t *testing.T) {
	held := packet.PackSeq(0, 1)
	ts := openTranscript(t, transcriptServer(t, ServerOptions{}), Request{
		Op: "fetch", Doc: corpus.DraftName, Codec: "fountain", Seed: 7, Broadcast: true,
		Have: []int{held}, DoneGens: []int{2},
	})
	perGen := make([]int, len(ts.layout.Shapes))
	for {
		g, s, end := ts.next()
		if end {
			break
		}
		if g == 2 {
			t.Fatalf("frame %d:%d of a generation reported done", g, s)
		}
		if packet.PackSeq(g, s) == held {
			t.Fatalf("frame %d:%d repeats a held packet", g, s)
		}
		perGen[g]++
	}
	for g, shape := range ts.layout.Shapes {
		if cap := fountainOvershootCap(shape.M); perGen[g] > cap {
			t.Errorf("generation %d sent %d frames, over its cap %d", g, perGen[g], cap)
		}
	}
}
