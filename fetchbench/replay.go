package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/core"
	"mobweb/internal/erasure"
	"mobweb/internal/packet"
	"mobweb/internal/planner"
	"mobweb/internal/transport"
)

// stages are the seven stages of a fetch, in the order a frame meets
// them.
var stages = []string{"plan", "cook", "control", "wire", "parse", "decode", "render"}

// span is one timed call into a layer. Spans of one fetch share Fetch;
// Parent is the span that contains this one (0: none).
type span struct {
	Fetch  int    `json:"fetch"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Side   string `json:"side"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps spans in memory and totals each stage's self time.
type tracer struct {
	origin time.Time
	spans  []span
	fetch  int
	self   map[string]time.Duration
	client time.Duration
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), self: make(map[string]time.Duration)}
}

// end records a span that began at t0 and ends now.
func (t *tracer) end(stage, side string, t0 time.Time) {
	t.add(stage, side, 0, t0, time.Since(t0), 0)
}

// add records a span of duration d and returns its id. child is time
// already charged to a child span, excluded from the stage's self time.
func (t *tracer) add(stage, side string, parent int, t0 time.Time, d, child time.Duration) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Fetch: t.fetch, ID: id, Parent: parent, Name: stage, Side: side,
		Start: int64(t0.Sub(t.origin)), Dur: int64(d)})
	self := max(d-child, 0)
	t.self[stage] += self
	if side == "client" {
		t.client += self
	}
	return id
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayResult is the stage replay's per-stage self time.
type replayResult struct {
	fetches, failed int
	selfUS          map[string]float64
	sumUS           float64
	clientUS        float64
	note            string
}

// wirePair is a loopback TCP connection whose two ends one goroutine
// drives: the server end writes through the same 4 KiB buffered writer
// the transport uses, and the client end reads through a buffered
// reader.
type wirePair struct {
	srv, cli net.Conn
	bw       *bufio.Writer
	br       *bufio.Reader
}

func newWirePair() (*wirePair, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	srv, err := ln.Accept()
	if err != nil {
		cli.Close()
		return nil, err
	}
	return &wirePair{srv: srv, cli: cli, bw: bufio.NewWriter(srv), br: bufio.NewReader(cli)}, nil
}

func (w *wirePair) close() {
	w.srv.Close()
	w.cli.Close()
}

// replay re-drives a seeded sample of the workload's fetches, one at a
// time on this goroutine, through every stage, for at most budget. It
// uses the live server's planner, so plan and frame-cache hits are what
// the live run left behind. The writer has stopped, so each document's
// current version is the one to expect.
func (e *env) replay(budget time.Duration) (replayResult, error) {
	wp, err := newWirePair()
	if err != nil {
		return replayResult{}, err
	}
	defer wp.close()
	tr := newTracer()
	gen := newStream(e.spec, e.seed, streamReplay)
	stop := time.Now().Add(budget)
	rr := replayResult{selfUS: make(map[string]float64)}
	for rr.fetches < e.spec.ReplayFetches && time.Now().Before(stop) {
		rr.fetches++
		tr.fetch = rr.fetches
		if err := e.replayFetch(tr, wp, gen.next()); err != nil {
			rr.failed++
			if rr.failed <= 3 {
				fmt.Printf("# FAILED replayed fetch: %v\n", err)
			}
		}
	}
	for _, s := range stages {
		us := float64(tr.self[s]) / float64(time.Microsecond)
		rr.selfUS[s] = us
		rr.sumUS += us
	}
	rr.clientUS = float64(tr.client) / float64(time.Microsecond)
	rr.note = fmt.Sprintf("replay of %d fetches", rr.fetches)
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", e.spec.Name, e.seed))
	if err := tr.write(path); err != nil {
		return rr, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("# %d spans written to %s\n", len(tr.spans), path)
	return rr, nil
}

// decodeRequest is the server's side of a stop or stopgen message.
func decodeRequest(b []byte) error {
	_, err := transport.DecodeRequest(b)
	return err
}

// fountainCap mirrors the transmitter's per-generation send cap.
func fountainCap(m int) int {
	if c := 4 * m; c > m+64 {
		return c
	}
	return m + 64
}

// replayFetch runs one fetch's rounds through the stages. Frames cross
// the same seeded channel the live injector applies; the server side
// flushes as the live transmitter does (when its 4 KiB buffer fills, or
// per frame for the rateless stream), and the client reads each frame
// once it has been flushed.
func (e *env) replayFetch(tr *tracer, wp *wirePair, f fetchSpec) error {
	fountain := f.Codec == erasure.CodecFountain
	req := transport.Request{Op: "fetch", Doc: docName(f.Doc), Query: queryText(e.seed, f.Doc, f.Query), LOD: "paragraph", Notion: "IC"}
	if f.Query >= 0 {
		req.Notion = "QIC"
	}
	if fountain {
		req.Codec = f.Codec.String()
	}
	var model *channel.Bernoulli
	if f.Alpha > 0 {
		var err error
		if model, err = channel.NewBernoulli(f.Alpha, f.ChanSeed); err != nil {
			return err
		}
	}
	var salt uint32
	want := e.corpus.current(f.Doc)
	var rcv *core.Receiver
	seen := make(map[int]bool)
	var line bytes.Buffer
	var rbuf, cbuf []byte

	// control times one control message: encoded by one side, decoded by
	// the other.
	control := func(v any, from, to string, decode func([]byte) error) error {
		t0 := time.Now()
		line.Reset()
		err := transport.WriteJSONLine(&line, v)
		tr.end("control", from, t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		err = decode(bytes.TrimSuffix(line.Bytes(), []byte("\n")))
		tr.end("control", to, t0)
		return err
	}

	for round := 1; round <= e.spec.MaxRounds; round++ {
		var got transport.Request
		if err := control(req, "client", "server", func(b []byte) (err error) {
			got, err = transport.DecodeRequest(b)
			return err
		}); err != nil {
			return err
		}
		t0 := time.Now()
		res, err := e.planner.ResolveFrames(planner.Request{Doc: got.Doc, Query: got.Query, LOD: got.LOD, Notion: got.Notion, Gamma: got.Gamma})
		tr.end("plan", "server", t0)
		if err != nil {
			return err
		}
		var layout core.Layout
		var seed uint64
		if fountain {
			if seed = got.Seed; seed == 0 {
				seed = res.FountainSeed(0)
			}
			layout = res.Plan.FountainLayout(seed)
		} else {
			layout = res.Plan.Layout()
		}
		var resp transport.Response
		if err := control(transport.Response{OK: true, Layout: &layout}, "server", "client", func(b []byte) error {
			return json.Unmarshal(b, &resp)
		}); err != nil {
			return err
		}
		if rcv == nil {
			t0 = time.Now()
			rcv, err = core.NewReceiverFromLayout(*resp.Layout)
			tr.end("decode", "client", t0)
			if err != nil {
				return err
			}
		}

		have := make(map[int]bool, len(got.Have))
		for _, s := range got.Have {
			have[s] = true
		}
		doneGen := make(map[int]bool, len(got.DoneGens))
		for _, g := range got.DoneGens {
			doneGen[g] = true
		}

		// The frame queue: bytes written so far, and the end offset of
		// each frame written but not yet read.
		var written int
		var ends []int
		stopped := false
		genStopped := make(map[int]bool)
		for g := range doneGen {
			genStopped[g] = true
		}
		// readAvailable lets the client read every frame whose bytes the
		// server end has flushed.
		readAvailable := func() error {
			flushed := written - wp.bw.Buffered()
			for len(ends) > 0 && ends[0] <= flushed {
				ends = ends[1:]
				t0 := time.Now()
				frame, err := transport.ReadFrameInto(wp.br, rbuf)
				tr.end("wire", "client", t0)
				if err != nil {
					return err
				}
				rbuf = frame
				if stopped {
					continue // draining after the stop
				}
				if err := e.consume(tr, rcv, frame, fountain, want, seen); err != nil {
					return err
				}
				if rcv.Reconstructible() {
					stopped = true
					if err := control(transport.Request{Op: "stop"}, "client", "server", decodeRequest); err != nil {
						return err
					}
					continue
				}
				if fountain {
					for g := range resp.Layout.Shapes {
						if !genStopped[g] && rcv.GenerationReconstructible(g) {
							genStopped[g] = true
							if err := control(transport.Request{Op: "stopgen", Gen: g}, "client", "server", decodeRequest); err != nil {
								return err
							}
						}
					}
				}
			}
			return nil
		}
		// send cooks one frame, passes it through the channel and writes
		// it.
		send := func(frame []byte, tag int, flush bool) error {
			out := frame
			if model != nil {
				outcome := model.Next()
				salt += 2654435761
				if outcome == channel.Corrupted {
					cbuf = append(cbuf[:0], frame...)
					packet.CorruptFrame(cbuf, salt^uint32(tag))
					out = cbuf
				}
			}
			t0 := time.Now()
			err := transport.WriteFrame(wp.bw, out)
			if err == nil && flush {
				err = wp.bw.Flush()
			}
			tr.end("wire", "server", t0)
			if err != nil {
				return err
			}
			written += 4 + len(out)
			ends = append(ends, written)
			return readAvailable()
		}

		if fountain {
			st := make([]int, len(layout.Shapes))
			cursor := make([]int, len(layout.Shapes))
			for active := true; active && !stopped; {
				active = false
				for g, shape := range layout.Shapes {
					if stopped || genStopped[g] {
						continue
					}
					if st[g] >= fountainCap(shape.M) {
						genStopped[g] = true
						continue
					}
					active = true
					seq := cursor[g]
					cursor[g]++
					if have[packet.PackSeq(g, seq)] {
						continue
					}
					t0 := time.Now()
					frame, err := res.FountainFrame(seed, g, seq)
					tr.end("cook", "server", t0)
					if err != nil {
						return err
					}
					st[g]++
					if err := send(frame, packet.PackSeq(g, seq), true); err != nil {
						return err
					}
				}
			}
		} else {
			seq := 0
			for g, shape := range layout.Shapes {
				for i := 0; i < shape.N && !stopped; i, seq = i+1, seq+1 {
					if have[seq] || doneGen[g] {
						continue
					}
					t0 := time.Now()
					frame, err := res.Frame(seq)
					tr.end("cook", "server", t0)
					if err != nil {
						return err
					}
					if err := send(frame, seq, false); err != nil {
						return err
					}
				}
			}
		}
		t0 = time.Now()
		err = transport.WriteEndOfStream(wp.bw)
		if err == nil {
			err = wp.bw.Flush()
		}
		tr.end("wire", "server", t0)
		if err != nil {
			return err
		}
		if err := readAvailable(); err != nil {
			return err
		}
		t0 = time.Now()
		eos, err := transport.ReadFrameInto(wp.br, rbuf)
		tr.end("wire", "client", t0)
		if err != nil {
			return err
		}
		if eos != nil {
			return fmt.Errorf("%s: frame after the stream's end", req.Doc)
		}

		if rcv.Reconstructible() {
			t0 = time.Now()
			body, err := rcv.Reconstruct()
			tr.end("decode", "client", t0)
			if err != nil {
				return err
			}
			if !bytes.Equal(body, want) {
				return fmt.Errorf("%s: reconstructed body differs from the document", req.Doc)
			}
			return nil
		}
		req.Have = rcv.HaveList()
		req.DoneGens = rcv.DoneGenerations()
		if fountain {
			req.Seed = layout.Seed
		}
	}
	return fmt.Errorf("%s: not reconstructed in %d rounds", req.Doc, e.spec.MaxRounds)
}

// consume is the client's work on one frame: parse (CRC), add to the
// receiver, and render after an intact frame, checking every new unit.
func (e *env) consume(tr *tracer, rcv *core.Receiver, frame []byte, fountain bool, want []byte, seen map[int]bool) error {
	t0 := time.Now()
	if fountain {
		_, _ = packet.ParseFountain(frame) // a CRC mismatch is an outcome, not a failure
	} else {
		_, _ = packet.Parse(frame)
	}
	parse := time.Since(t0)
	t1 := time.Now()
	_, intact, err := rcv.AddFrame(frame)
	// AddFrame parses the frame again; that parse is the child span.
	id := tr.add("decode", "client", 0, t1, time.Since(t1), parse)
	tr.add("parse", "client", id, t0, parse, 0)
	if err != nil {
		return err
	}
	if !intact {
		return nil
	}
	t0 = time.Now()
	units := rcv.Render()
	tr.end("render", "client", t0)
	for _, u := range units {
		if seen[u.Segment.PermutedOff] {
			continue
		}
		seen[u.Segment.PermutedOff] = true
		if !unitIn(want, u.Segment.OrigOff, u.Text) {
			return fmt.Errorf("rendered unit %s differs from the document", u.Segment.Label)
		}
	}
	return nil
}
