package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/erasure"
	"mobweb/internal/packet"
	"mobweb/internal/planner"
	"mobweb/internal/transport"
)

// multiGen gives the draft several generations, so a fountain fetch
// needs per-generation stopgen feedback to finish in one round.
var multiGen = transport.ServerOptions{Defaults: core.Config{MaxGeneration: 8}}

// TestFountainFetchThroughFrontOneRound: the front relays the client's
// stopgens to the replica, so a multi-generation fountain fetch through
// it finishes like a direct one — one round, no reconnect. A front that
// rejects stopgen mid-stream drops the client's connection instead.
func TestFountainFetchThroughFrontOneRound(t *testing.T) {
	fl := startFleet(t, 2, multiGen, Options{})
	doc := corpus.DraftName
	client := fl.client(t)
	res, err := client.Fetch(transport.FetchOptions{Doc: doc, Codec: erasure.CodecFountain, Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Body == nil {
		t.Fatal("fountain fetch through the front did not reconstruct")
	}
	if res.Rounds != 1 || res.Reconnects != 0 {
		t.Errorf("fountain fetch through the front: %d rounds, %d reconnects; want 1 and 0", res.Rounds, res.Reconnects)
	}
	direct, err := transport.Dial(fl.replicas[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	direct.Timeout = 10 * time.Second
	want, err := direct.Fetch(transport.FetchOptions{Doc: doc, Codec: erasure.CodecFountain, Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body, want.Body) {
		t.Error("front-proxied fountain body differs from a direct fetch")
	}
}

// TestFountainRerouteKeepsSeedAcrossSalts: replicas with different
// fountain salts derive different streams for the same request, so a
// re-route must pin the seed the client is already decoding. Splicing
// the next replica's own stream in makes the client reject its frames.
func TestFountainRerouteKeepsSeedAcrossSalts(t *testing.T) {
	replicas := make([]*testReplica, 2)
	for i := range replicas {
		sopts := multiGen
		sopts.PacketDelay = 2 * time.Millisecond
		sopts.FountainSalt = uint64(i + 1)
		replicas[i] = startReplica(t, string(rune('a'+i))+"-replica", sopts)
	}
	fl := startFrontOver(t, replicas, Options{
		Retry: transport.RetryPolicy{Seed: 7, BaseDelay: 10 * time.Millisecond},
	})
	doc := corpus.DraftName
	want := singleServerBody(t, replicas[0], doc)

	client := fl.client(t)
	var progress int
	var killed sync.WaitGroup
	res, err := client.Fetch(transport.FetchOptions{
		Doc:        doc,
		Codec:      erasure.CodecFountain,
		Caching:    true,
		OnProgress: killAt(5, replicas[fl.home(doc)], &progress, &killed),
	})
	killed.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body, want) {
		t.Fatal("re-routed fountain body differs from a single-server fetch")
	}
	if res.Rounds != 1 || res.Reconnects != 0 {
		t.Errorf("re-routed fountain fetch: %d rounds, %d reconnects; want 1 and 0", res.Rounds, res.Reconnects)
	}
	if got := fl.counter("front.reroutes"); got < 1 {
		t.Errorf("front.reroutes = %d, want >= 1", got)
	}
}

// scriptedFleet plays two replicas by script. The first fetch stream
// either replica sees gets `frames` fountain frames and then dies
// mid-stream; every later fetch request is recorded and answered with
// the same layout and an immediate end of stream.
type scriptedFleet struct {
	t        *testing.T
	layout   core.Layout
	resolved *planner.Resolved
	seed     uint64
	frames   int

	mu      sync.Mutex
	served  bool
	sent    []int // packed ids of the frames the dying stream sent
	resumed []transport.Request
}

func (sf *scriptedFleet) listen() Replica {
	sf.t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sf.t.Fatal(err)
	}
	sf.t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go sf.serve(conn)
		}
	}()
	return Replica{Name: ln.Addr().String(), Addr: ln.Addr().String()}
}

func (sf *scriptedFleet) serve(conn net.Conn) {
	defer conn.Close()
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		return // a health probe: dial and hang up
	}
	req, err := transport.DecodeRequest(line)
	if err != nil || req.Op != "fetch" {
		return
	}
	sf.mu.Lock()
	first := !sf.served
	sf.served = true
	if !first {
		sf.resumed = append(sf.resumed, req)
	}
	sf.mu.Unlock()
	w := bufio.NewWriter(conn)
	if transport.WriteJSONLine(w, transport.Response{OK: true, Layout: &sf.layout}) != nil {
		return
	}
	if first {
		gens := len(sf.layout.Shapes)
		for i := 0; i < sf.frames; i++ {
			g, seq := i%gens, i/gens
			frame, err := sf.resolved.FountainFrame(sf.seed, g, seq)
			if err != nil {
				sf.t.Error(err)
				return
			}
			if transport.WriteFrame(w, frame) != nil {
				return
			}
			sf.mu.Lock()
			sf.sent = append(sf.sent, packet.PackSeq(g, seq))
			sf.mu.Unlock()
		}
		w.Flush()
		return // die mid-stream: no end marker
	}
	if transport.WriteEndOfStream(w) == nil {
		w.Flush()
	}
}

// TestFountainRerouteReplaysRelayedSeqs: when a replica dies in the
// middle of a fountain stream, the front's resumed request to the next
// replica lists every fountain frame it already relayed intact, as
// packed (gen, seq) ids — fountain frames are parsed by their own
// format, not the fixed-rate one.
func TestFountainRerouteReplaysRelayedSeqs(t *testing.T) {
	pl, err := planner.New(newEngine(t), planner.Options{Defaults: multiGen.Defaults})
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := pl.ResolveFrames(planner.Request{Doc: corpus.DraftName})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	sf := &scriptedFleet{t: t, resolved: resolved, seed: seed, frames: 9, layout: resolved.Plan.FountainLayout(seed)}
	front, err := NewFront(Options{
		Replicas: []Replica{sf.listen(), sf.listen()},
		Retry:    transport.RetryPolicy{Seed: 3, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		front.Serve(ln)
	}()
	defer func() {
		front.Close()
		<-serveDone
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteJSONLine(conn, transport.Request{Op: "fetch", Doc: corpus.DraftName, Codec: "fountain", Seed: seed}); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	line, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp transport.Response
	if err := json.Unmarshal(line, &resp); err != nil || !resp.OK {
		t.Fatalf("fetch response %s (%v)", line, err)
	}
	relayed := 0
	for {
		frame, err := transport.ReadFrame(r)
		if err != nil {
			t.Fatalf("reading relayed stream: %v", err)
		}
		if frame == nil {
			break
		}
		relayed++
	}

	sf.mu.Lock()
	defer sf.mu.Unlock()
	if relayed != sf.frames || len(sf.sent) != sf.frames {
		t.Fatalf("relayed %d frames, replica sent %d; want %d", relayed, len(sf.sent), sf.frames)
	}
	if len(sf.resumed) != 1 {
		t.Fatalf("front sent %d resumed requests, want 1", len(sf.resumed))
	}
	// The dying stream sent its ids round-robin over generations;
	// the resumed Have list is sorted.
	want := append([]int(nil), sf.sent...)
	sort.Ints(want)
	if got := sf.resumed[0].Have; !reflect.DeepEqual(got, want) {
		t.Errorf("resumed Have = %v, want the relayed packed seqs %v", got, want)
	}
}

// TestFrontIgnoresStaleStopgen: a stopgen that reaches the front after
// its stream ended (feedback racing the end marker) is dropped, as the
// replica server drops it. Answering it would put an error line where
// the client expects the reply to its next request.
func TestFrontIgnoresStaleStopgen(t *testing.T) {
	fl := startFleet(t, 1, transport.ServerOptions{}, Options{})
	conn, err := net.Dial("tcp", fl.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for _, req := range []transport.Request{{Op: "stopgen", Gen: 2}, {Op: "search", Query: "mobile web browsing", Limit: 3}} {
		if err := transport.WriteJSONLine(conn, req); err != nil {
			t.Fatal(err)
		}
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp transport.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Hits) == 0 {
		t.Fatalf("first reply after a stale stopgen = %s, want the search hits", line)
	}
}

// TestFrontDropsFramesAfterStop: once the client has stopped, the front
// relays no further frames; the client would only drain them. The
// scripted replica streams the first half of the rows over and over
// until the forwarded stop reaches it, then sends the second half. The
// front forwards the stop only after marking the stream stopped, so no
// second-half row may reach the client — ordered by that event, not by
// timing.
func TestFrontDropsFramesAfterStop(t *testing.T) {
	pl, err := planner.New(newEngine(t), planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := pl.ResolveFrames(planner.Request{Doc: corpus.DraftName})
	if err != nil {
		t.Fatal(err)
	}
	layout := resolved.Plan.Layout()
	half := layout.N() / 2
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r := bufio.NewReader(conn)
				if line, err := r.ReadBytes('\n'); err != nil || !bytes.Contains(line, []byte(`"fetch"`)) {
					return // a health probe
				}
				stop := make(chan struct{})
				go func() {
					for {
						line, err := r.ReadBytes('\n')
						if err != nil {
							return
						}
						if bytes.Contains(line, []byte(`"stop"`)) {
							close(stop)
							return
						}
					}
				}()
				w := bufio.NewWriter(conn)
				write := func(seq int) bool {
					frame, err := resolved.Frame(seq)
					return err == nil && transport.WriteFrame(w, frame) == nil && w.Flush() == nil
				}
				if transport.WriteJSONLine(w, transport.Response{OK: true, Layout: &layout}) != nil {
					return
				}
			first:
				for i := 0; ; i++ {
					select {
					case <-stop:
						break first
					default:
					}
					if i == 1<<16 || !write(i%half) {
						return // no stop ever came: the client sees the stream die
					}
				}
				for seq := half; seq < layout.N(); seq++ {
					if !write(seq) {
						return
					}
				}
				if transport.WriteEndOfStream(w) == nil {
					w.Flush()
				}
			}()
		}
	}()
	front, err := NewFront(Options{Replicas: []Replica{{Name: "scripted", Addr: ln.Addr().String()}}})
	if err != nil {
		t.Fatal(err)
	}
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		front.Serve(fln)
	}()
	defer func() {
		front.Close()
		<-serveDone
	}()

	conn, err := net.Dial("tcp", fln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteJSONLine(conn, transport.Request{Op: "fetch", Doc: corpus.DraftName}); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	if _, err := r.ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	const stopAfter = 5
	for frames := 1; ; frames++ {
		frame, err := transport.ReadFrame(r)
		if err != nil {
			t.Fatalf("reading relayed stream: %v", err)
		}
		if frame == nil {
			break
		}
		pkt, err := packet.Parse(frame)
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Seq >= half {
			t.Fatalf("front relayed row %d, sent after the client's stop", pkt.Seq)
		}
		if frames == stopAfter {
			if err := transport.WriteJSONLine(conn, transport.Request{Op: "stop"}); err != nil {
				t.Fatal(err)
			}
		}
	}
}
