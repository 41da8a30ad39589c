package transport

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"mobweb/internal/core"
	"mobweb/internal/obs"
	"mobweb/internal/packet"
	"mobweb/internal/planner"
)

// This file is the transmitter's one send engine (DESIGN.md §18). Every
// stream — fixed-rate rows, a private fountain stream, a broadcast
// subscription — is the §4.2 protocol: send cooked packets, honour the
// client's stop, skip what the client holds. A codec only supplies a
// row source; the engine owns feedback, skipping, caps, cooking,
// injection, writes, flushing, pacing and the stream's fetch record.

// streamRow is one row a source offers the engine.
type streamRow struct {
	// gen is the row's generation. seq is its position: the global
	// cooked seq for fixed-rate rows, the per-generation stream index for
	// fountain rows.
	gen, seq int
	// id names the row in Have lists and to the fault injector: the
	// cooked seq, or the packed fountain (gen, seq).
	id int
	// frame is the cooked frame when the source already holds it (a
	// broadcast producer's shared slice); nil means the engine cooks it.
	frame []byte
}

// rowSource is what a codec supplies to the engine: where the rows come
// from and how they go on the air.
type rowSource struct {
	// next pulls the next row on demand, skipping generations the
	// stream's state marks stopped; ok=false ends the stream.
	next func() (row streamRow, ok bool)
	// queue, set instead of next, delivers rows from a shared producer.
	// The engine waits on it and on the client's control channel
	// together; a closed queue ends the stream.
	queue <-chan streamRow
	// fountain selects fountain frames of stream seed over fixed-rate
	// frames.
	fountain bool
	seed     uint64
	// flushEach flushes every frame. A fountain stream only ends through
	// client feedback, so its frames must reach the decoder at once; a
	// fixed-rate stream has a known end and buffers its frames.
	flushEach bool
	// delay paces the stream, flushing and sleeping after every frame.
	delay time.Duration
}

// streamState is one stream's per-generation bookkeeping.
type streamState struct {
	have    map[int]bool // row ids the client already holds
	stopped []bool       // generations the client decoded, or at their cap
	sent    []int        // capped streams: frames spent per generation, dropped ones included
	caps    []int        // per-generation overshoot caps; nil is uncapped
	active  int          // generations not yet stopped
}

// newStreamState applies the request's resume state: Have rows are
// skipped, and DoneGens generations are stopped before the first frame —
// a stopgen that arrived with the request itself.
func newStreamState(req Request, layout core.Layout, capped bool) streamState {
	gens := len(layout.Shapes)
	st := streamState{
		have:    make(map[int]bool, len(req.Have)),
		stopped: make([]bool, gens),
		active:  gens,
	}
	for _, id := range req.Have {
		st.have[id] = true
	}
	if capped {
		st.sent = make([]int, gens)
		st.caps = make([]int, gens)
		for g, shape := range layout.Shapes {
			st.caps[g] = fountainOvershootCap(shape.M)
		}
	}
	for _, g := range req.DoneGens {
		st.stopGen(g)
	}
	return st
}

// stopGen marks one generation done: the client decoded it, or its
// overshoot cap fired.
func (st *streamState) stopGen(g int) {
	if g >= 0 && g < len(st.stopped) && !st.stopped[g] {
		st.stopped[g] = true
		st.active--
	}
}

// spend charges one frame (sent or dropped on the air) to generation g
// of a capped stream and stops the generation at its cap.
func (st *streamState) spend(g int) {
	if st.caps == nil {
		return
	}
	st.sent[g]++
	if st.sent[g] >= st.caps[g] {
		st.stopGen(g)
	}
}

// control applies one client message received mid-stream: stop ends
// the stream, stopgen ends one generation, and a closed control channel
// (the client's connection is gone) ends the handler.
func (st *streamState) control(creq Request, open bool) (stop bool, err error) {
	if !open {
		return false, io.EOF
	}
	switch creq.Op {
	case "stop":
		return true, nil
	case "stopgen":
		st.stopGen(creq.Gen)
		return false, nil
	}
	return false, fmt.Errorf("transport: %q request during stream", creq.Op)
}

// fixedRows is the fixed-rate source: cooked seqs in order, skipping
// generations st marks stopped and, on a clear-prefix-only tier, every
// parity row.
func fixedRows(layout core.Layout, clearOnly bool, st *streamState) func() (streamRow, bool) {
	seq, gen, genEnd := 0, 0, 0
	if len(layout.Shapes) > 0 {
		genEnd = layout.Shapes[0].N
	}
	n := layout.N()
	return func() (streamRow, bool) {
		for seq < n {
			s := seq
			seq++
			for s >= genEnd {
				gen++
				genEnd += layout.Shapes[gen].N
			}
			if st.stopped[gen] || (clearOnly && !layout.IsClear(s)) {
				continue
			}
			return streamRow{gen: gen, seq: s, id: s}, true
		}
		return streamRow{}, false
	}
}

// fountainRows is the private fountain source: one unbounded stream per
// generation, visited round-robin over the generations st has not
// stopped.
func fountainRows(st *streamState) func() (streamRow, bool) {
	gens := len(st.stopped)
	cursor := make([]int, gens)
	g := 0
	return func() (streamRow, bool) {
		for st.active > 0 {
			cur := g
			g = (g + 1) % gens
			if st.stopped[cur] {
				continue
			}
			seq := cursor[cur]
			cursor[cur]++
			return streamRow{gen: cur, seq: seq, id: packet.PackSeq(cur, seq)}, true
		}
		return streamRow{}, false
	}
}

// stream runs the send engine over one row source until the source is
// exhausted, every generation is stopped, or the client stops; it then
// records the stream in the fetch log and writes the end-of-stream
// marker.
//
// Frames come from the shared frame cache when it is enabled: those
// slices are shared across connections and immutable, so a clean
// channel writes them straight to the socket. Any injector other than
// the no-op may corrupt frames in place, so it first gets a copy in this
// connection's private frameBuf — never an append on a shared slice.
// With the cache disabled the frame is rebuilt into frameBuf every row,
// which also keeps an earlier in-place corruption from leaking forward.
func (s *Server) stream(w *bufio.Writer, req Request, resolved *planner.Resolved, src rowSource, st *streamState, ctl <-chan Request, injector FaultInjector) error {
	var frameBuf []byte
	_, cleanChannel := injector.(NopInjector)
	useCache := resolved.Cached()
	sent := 0
	for st.active > 0 {
		// Client feedback comes first. A pulled source only polls for
		// it; a queued source waits on feedback and its queue together.
		var (
			row       streamRow
			more, fed bool
			creq      Request
			open      bool
		)
		if src.queue != nil {
			select {
			case creq, open = <-ctl:
				fed = true
			case row, more = <-src.queue: // closed: the producer tore the stream down
			}
		} else {
			select {
			case creq, open = <-ctl:
				fed = true
			default:
				row, more = src.next()
			}
		}
		if fed {
			stop, err := st.control(creq, open)
			if err != nil {
				return err
			}
			if stop {
				break
			}
			continue
		}
		if !more {
			break
		}
		if st.stopped[row.gen] || st.have[row.id] {
			continue
		}

		shared := row.frame
		if shared == nil && useCache {
			var err error
			if src.fountain {
				shared, err = resolved.FountainFrame(src.seed, row.gen, row.seq)
			} else {
				shared, err = resolved.Frame(row.seq)
			}
			if err != nil {
				return err
			}
		}
		out := shared // shared, immutable; written verbatim on a clean channel
		if shared == nil || !cleanChannel {
			if shared != nil {
				frameBuf = append(frameBuf[:0], shared...)
			} else {
				var err error
				if src.fountain {
					frameBuf, err = resolved.Plan.AppendFountainFrame(frameBuf[:0], src.seed, row.gen, row.seq)
				} else {
					frameBuf, err = resolved.Plan.AppendFrame(frameBuf[:0], row.seq)
				}
				if err != nil {
					return err
				}
			}
			var send bool
			if out, send = injector.Inject(frameBuf, row.id); !send {
				st.spend(row.gen)
				s.sm.framesDropped.Inc()
				continue
			}
		}
		if err := WriteFrame(w, out); err != nil {
			return err
		}
		if src.flushEach || src.delay > 0 {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		st.spend(row.gen)
		sent++
		s.sm.framesOut.Inc()
		if src.fountain {
			s.sm.fountainFrames.Inc()
		}
		if src.delay > 0 {
			time.Sleep(src.delay)
		}
	}
	s.sm.fetchLog.Record(obs.FetchRecord{
		Doc:     req.Doc,
		Origin:  "server",
		Replica: s.opts.Name,
		Sent:    sent,
		Have:    len(req.Have),
		Gamma:   req.Gamma,
	})
	if err := WriteEndOfStream(w); err != nil {
		return err
	}
	return w.Flush()
}
