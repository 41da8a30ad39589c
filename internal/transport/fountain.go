package transport

import (
	"sync"
	"time"

	"mobweb/internal/packet"
	"mobweb/internal/planner"
)

// This file holds the transmitter's rateless-mode pieces: the overshoot
// cap, and the broadcast hub that fans one cooked fountain stream to any
// number of subscribers with zero-copy shared frames. The streams
// themselves run in the one send engine (stream.go) until the client
// reports decoded generations ("stopgen") or stops outright — the §4.2
// retransmission rounds collapse into continuous packet generation with
// client feedback.

// broadcastSubBuffer is each subscriber's frame-queue depth. A slow
// subscriber whose queue fills simply misses packets — for a rateless
// code that is indistinguishable from channel loss, so the producer
// never blocks on the slowest socket.
const broadcastSubBuffer = 64

// broadcastPaceBacklog is the per-subscriber queue occupancy above which
// the producer considers that subscriber well fed. When every subscriber
// is well fed the producer sleeps instead of cooking further ahead,
// bounding wasted encode work to ~this many frames per subscriber.
const broadcastPaceBacklog = 8

// fountainOvershootCap bounds the packets a fountain stream sends for
// one generation of M source symbols before giving up on feedback:
// enough for decode at severe loss (4M covers α beyond 0.7), with a
// floor for tiny generations whose soliton overhead is proportionally
// larger.
func fountainOvershootCap(m int) int {
	if c := 4 * m; c > m+64 {
		return c
	}
	return m + 64
}

// broadcastKey identifies one shared fan-out stream: the version-scoped
// plan key plus the fountain seed. Subscribers of the same plan under
// the same seed share one producer; a re-indexed document or a
// different seed is a different stream.
type broadcastKey struct {
	plan string
	seed uint64
}

// broadcastStream is one live fan-out: a producer goroutine plus its
// subscriber set. Field access is guarded by the hub mutex.
type broadcastStream struct {
	key  broadcastKey
	subs map[*broadcastSub]bool
}

// broadcastSub is one subscriber's queue. Only the producer closes ch
// (on a cook failure tearing the stream down), at most once, under the
// hub lock.
type broadcastSub struct {
	ch chan streamRow
}

// broadcastHub indexes the live fan-out streams.
type broadcastHub struct {
	mu      sync.Mutex
	streams map[broadcastKey]*broadcastStream
}

// subscribeBroadcast joins (creating on first subscriber) the shared
// stream for (plan, seed).
func (s *Server) subscribeBroadcast(resolved *planner.Resolved, seed uint64, gens int) *broadcastSub {
	key := broadcastKey{plan: resolved.Key, seed: seed}
	sub := &broadcastSub{ch: make(chan streamRow, broadcastSubBuffer)}
	h := &s.bcast
	h.mu.Lock()
	st, ok := h.streams[key]
	if !ok {
		st = &broadcastStream{key: key, subs: make(map[*broadcastSub]bool)}
		h.streams[key] = st
		s.sm.broadcastStreams.Add(1)
		go s.produceBroadcast(st, resolved, seed, gens)
	}
	st.subs[sub] = true
	h.mu.Unlock()
	s.sm.broadcastSubs.Add(1)
	return sub
}

// unsubscribeBroadcast detaches one subscriber; the producer notices an
// empty subscriber set and deregisters itself.
func (s *Server) unsubscribeBroadcast(key broadcastKey, sub *broadcastSub) {
	h := &s.bcast
	h.mu.Lock()
	if st := h.streams[key]; st != nil {
		delete(st.subs, sub)
	}
	h.mu.Unlock()
	s.sm.broadcastSubs.Add(-1)
}

// produceBroadcast is the single producer of one fan-out stream: it
// cooks fountain frames round-robin across generations and offers each
// to every subscriber without blocking — a full queue drops the frame
// for that subscriber only. It exits (and deregisters the stream) when
// the subscriber set empties, or tears the stream down by closing every
// queue if a frame fails to cook.
func (s *Server) produceBroadcast(st *broadcastStream, resolved *planner.Resolved, seed uint64, gens int) {
	h := &s.bcast
	cursor := make([]int, gens)
	var subs []*broadcastSub
	for {
		for g := 0; g < gens; g++ {
			seq := cursor[g]
			cursor[g]++
			frame, err := resolved.FountainFrame(seed, g, seq)

			h.mu.Lock()
			if len(st.subs) == 0 {
				delete(h.streams, st.key)
				h.mu.Unlock()
				s.sm.broadcastStreams.Add(-1)
				return
			}
			if err != nil {
				// Cook failure (plan invalidated mid-stream): tear down;
				// subscribers see a closed queue and end their streams.
				for sub := range st.subs { //mobweb:nondet-ok teardown closes every queue; order is immaterial
					close(sub.ch)
				}
				st.subs = make(map[*broadcastSub]bool)
				delete(h.streams, st.key)
				h.mu.Unlock()
				s.sm.broadcastStreams.Add(-1)
				return
			}
			subs = subs[:0]
			for sub := range st.subs { //mobweb:nondet-ok per-subscriber queues; delivery order across subscribers is immaterial
				subs = append(subs, sub)
			}
			h.mu.Unlock()

			// The frame bytes are shared and immutable (framecache
			// slices); a subscriber that must mutate them copies first.
			row := streamRow{gen: g, seq: seq, id: packet.PackSeq(g, seq), frame: frame}
			delivered, pace := false, true
			for _, sub := range subs {
				select {
				case sub.ch <- row:
					delivered = true
					s.sm.broadcastFrames.Inc()
				default:
					s.sm.broadcastDrops.Inc()
				}
				if len(sub.ch) < broadcastPaceBacklog {
					pace = false
				}
			}
			if pace || !delivered {
				// Every subscriber already holds a healthy backlog (or
				// some queue is outright full): the sockets are the
				// bottleneck, not the cook loop. Pace cooking to
				// consumption — one cooked stream only amortizes the
				// fan-out when the producer tracks its slowest consumer
				// instead of free-running on the wall clock.
				//mobweb:nondet-ok pacing sleep; frame content is unaffected
				time.Sleep(200 * time.Microsecond)
			}
			if d := s.opts.PacketDelay; d > 0 {
				// The carousel is paced to the emulated broadcast link
				// rate, like the unicast stream paths: the air interface,
				// not the CPU, decides how fast new symbols appear.
				//mobweb:nondet-ok pacing sleep; frame content is unaffected
				time.Sleep(d)
			}
		}
	}
}
