package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"mobweb/internal/core"
	"mobweb/internal/obs"
	"mobweb/internal/packet"
	"mobweb/internal/transport"
)

// Options tunes the front tier.
type Options struct {
	// Name identifies the front in its own shed responses and fetch-log
	// records.
	Name string
	// Replicas is the backend fleet, hashed onto the ring by name.
	Replicas []Replica
	// VNodes is the virtual-node count per replica; zero means
	// DefaultVNodes.
	VNodes int
	// Gate is the front tier's admission budget — the fleet-aggregate
	// guard, on top of each replica's own gate.
	Gate GateOptions
	// Monitor tunes the health checker.
	Monitor MonitorOptions
	// Retry shapes the backoff between replica re-dial attempts on the
	// failover path. Retry.Seed makes the jittered schedule reproducible
	// under the chaos harness, exactly as it does for the client.
	Retry transport.RetryPolicy
	// DialTimeout bounds one replica dial; zero means 2 s.
	DialTimeout time.Duration
	// IOTimeout bounds each replica/client read and write; zero means
	// 30 s.
	IOTimeout time.Duration
	// IdleTimeout closes client connections with no request activity;
	// zero means 2 minutes.
	IdleTimeout time.Duration
	// Metrics, when set, receives the front's counters (front.fetches,
	// front.sheds, front.reroutes, front.markdowns, ...), the fetch log,
	// and the "replicas" / "capability" probes on /debug/metrics.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Name == "" {
		o.Name = "front"
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 30 * time.Second
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 2 * time.Minute
	}
	return o
}

// frontMetrics holds the front tier's counter pointers; the zero value
// disables them.
type frontMetrics struct {
	connsAccepted *obs.Counter
	connsActive   *obs.Gauge
	fetches       *obs.Counter
	fetchErrors   *obs.Counter
	sheds         *obs.Counter
	reroutes      *obs.Counter
	searches      *obs.Counter
	fetchLog      *obs.FetchLog
}

func newFrontMetrics(r *obs.Registry) frontMetrics {
	if r == nil {
		return frontMetrics{}
	}
	return frontMetrics{
		connsAccepted: r.Counter("front.conns_accepted"),
		connsActive:   r.Gauge("front.conns_active"),
		fetches:       r.Counter("front.fetches"),
		fetchErrors:   r.Counter("front.fetch_errors"),
		sheds:         r.Counter("front.sheds"),
		reroutes:      r.Counter("front.reroutes"),
		searches:      r.Counter("front.searches"),
		fetchLog:      r.FetchLog(),
	}
}

// Front is the fleet's entry point: it speaks the transport wire
// protocol to clients, consistent-hashes each fetch's canonical document
// ID onto the replica ring, proxies the stream, and — when the serving
// replica dies mid-stream — replays the fetch against the next replica
// on the ring with the client's Have list extended by every frame
// already relayed intact. Frames are deterministic per (plan, seq)
// across replicas serving the same corpus, so the re-routed stream is
// byte-identical to the one the dead replica would have finished.
type Front struct {
	opts Options
	ring *Ring
	mon  *Monitor
	gate *Gate
	fm   frontMetrics

	monCtx    context.Context
	monCancel context.CancelFunc

	mu      sync.Mutex
	ln      net.Listener
	closed  bool
	conns   map[net.Conn]bool
	connSeq int64
	wg      sync.WaitGroup
}

// NewFront builds a front over the replica fleet. The health monitor
// starts probing when Serve is called.
func NewFront(opts Options) (*Front, error) {
	opts = opts.withDefaults()
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("shard: front needs at least one replica")
	}
	names := make([]string, len(opts.Replicas))
	for i, r := range opts.Replicas {
		names[i] = r.Name
		if r.Addr == "" {
			return nil, fmt.Errorf("shard: replica %q has no address", r.Name)
		}
	}
	ring, err := NewRing(names, opts.VNodes)
	if err != nil {
		return nil, err
	}
	mopts := opts.Monitor
	if mopts.Metrics == nil {
		mopts.Metrics = opts.Metrics
	}
	f := &Front{
		opts:  opts,
		ring:  ring,
		mon:   NewMonitor(opts.Replicas, mopts),
		gate:  NewGate(opts.Gate),
		fm:    newFrontMetrics(opts.Metrics),
		conns: make(map[net.Conn]bool),
	}
	f.monCtx, f.monCancel = context.WithCancel(context.Background())
	opts.Metrics.RegisterProbe("capability", func() any {
		return map[string]string{"mode": f.mon.Aggregate().String()}
	})
	return f, nil
}

// Monitor exposes the front's health checker (tests step it directly).
func (f *Front) Monitor() *Monitor { return f.mon }

// Gate exposes the front tier's admission gate.
func (f *Front) Gate() *Gate { return f.gate }

// Serve accepts client connections until Close, with the health monitor
// probing in the background; it always returns a non-nil error
// (transport.ErrServerClosed after a clean shutdown).
func (f *Front) Serve(ln net.Listener) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return transport.ErrServerClosed
	}
	f.ln = ln
	f.mu.Unlock()
	go f.mon.Run(f.monCtx)

	for {
		conn, err := ln.Accept()
		if err != nil {
			f.mu.Lock()
			closed := f.closed
			f.mu.Unlock()
			if closed {
				return transport.ErrServerClosed
			}
			return err
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			conn.Close()
			return transport.ErrServerClosed
		}
		f.conns[conn] = true
		f.connSeq++
		connID := f.connSeq
		f.wg.Add(1)
		f.mu.Unlock()
		f.fm.connsAccepted.Inc()
		f.fm.connsActive.Add(1)
		go func() {
			defer f.wg.Done()
			defer func() {
				f.mu.Lock()
				delete(f.conns, conn)
				f.mu.Unlock()
				conn.Close()
				f.fm.connsActive.Add(-1)
			}()
			f.handle(conn, connID)
		}()
	}
}

// Close stops accepting, stops the health monitor, closes live client
// connections, and waits for handlers to exit.
func (f *Front) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	ln := f.ln
	conns := make([]net.Conn, 0, len(f.conns))
	//mobweb:nondet-ok shutdown closes every conn; close order is immaterial
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	f.monCancel()
	for _, c := range conns {
		c.Close()
	}
	var err error
	if ln != nil {
		err = ln.Close()
	}
	f.wg.Wait()
	return err
}

// jitter builds a per-connection backoff source: a non-zero Retry.Seed
// yields a schedule determined by (seed, connection arrival order), so
// chaos runs replay identical failover timing; a zero seed draws fresh
// per-connection randomness.
func (f *Front) jitter(connID int64) *rand.Rand {
	seed := f.opts.Retry.Seed
	if seed != 0 {
		seed += connID
	}
	return transport.JitterSource(seed)
}

// handle runs one client connection's request loop, mirroring the
// transport server's reader-goroutine pattern so a stop arriving
// mid-stream aborts the relay promptly.
func (f *Front) handle(conn net.Conn, connID int64) {
	rng := f.jitter(connID)
	requests := make(chan transport.Request)
	handlerDone := make(chan struct{})
	defer close(handlerDone)
	go func() {
		defer close(requests)
		scan := bufio.NewScanner(conn)
		scan.Buffer(make([]byte, 0, 4096), transport.MaxControlLine)
		for scan.Scan() {
			req, err := transport.DecodeRequest(scan.Bytes())
			if err != nil {
				return
			}
			select {
			case requests <- req:
			case <-handlerDone:
				return
			}
		}
	}()

	w := bufio.NewWriter(conn)
	for {
		//mobweb:nondet-ok idle-timeout deadline, wall-clock by nature
		if err := conn.SetReadDeadline(time.Now().Add(f.opts.IdleTimeout)); err != nil {
			return
		}
		req, ok := <-requests
		if !ok {
			return
		}
		var err error
		switch req.Op {
		case "search":
			f.fm.searches.Inc()
			err = f.proxySearch(w, req)
		case "fetch":
			f.fm.fetches.Inc()
			err = f.proxyFetch(conn, w, requests, req, rng)
		case "stop":
			// A stale stop from a stream that already ended; ignore.
			continue
		default:
			err = writeFlush(w, transport.Response{Error: fmt.Sprintf("unknown op %q", req.Op)})
		}
		if err != nil {
			return
		}
	}
}

// writeFlush writes one control message and flushes it.
func writeFlush(w *bufio.Writer, resp transport.Response) error {
	if err := transport.WriteJSONLine(w, resp); err != nil {
		return err
	}
	return w.Flush()
}

// replicaConn is one proxied stream's backend leg.
type replicaConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	idx  int
}

func (rc *replicaConn) close() {
	if rc != nil {
		rc.conn.Close()
	}
}

// openStream dials a replica, sends the fetch request and reads the
// response header. Any failure closes the leg and returns the error.
func (f *Front) openStream(idx int, req transport.Request) (*replicaConn, transport.Response, error) {
	d := net.Dialer{Timeout: f.opts.DialTimeout}
	conn, err := d.Dial("tcp", f.opts.Replicas[idx].Addr)
	if err != nil {
		return nil, transport.Response{}, err
	}
	rc := &replicaConn{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn), idx: idx}
	if err := rc.conn.SetWriteDeadline(f.ioDeadline()); err != nil {
		rc.close()
		return nil, transport.Response{}, err
	}
	if err := transport.WriteJSONLine(rc.w, req); err != nil {
		rc.close()
		return nil, transport.Response{}, err
	}
	if err := rc.w.Flush(); err != nil {
		rc.close()
		return nil, transport.Response{}, err
	}
	resp, err := f.readResponse(rc)
	if err != nil {
		rc.close()
		return nil, transport.Response{}, err
	}
	return rc, resp, nil
}

func (f *Front) readResponse(rc *replicaConn) (transport.Response, error) {
	if err := rc.conn.SetReadDeadline(f.ioDeadline()); err != nil {
		return transport.Response{}, err
	}
	line, err := rc.r.ReadBytes('\n')
	if err != nil {
		return transport.Response{}, err
	}
	var resp transport.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return transport.Response{}, fmt.Errorf("%w: %v", transport.ErrBadResponse, err)
	}
	return resp, nil
}

//mobweb:nondet-ok I/O deadlines are wall-clock by nature
func (f *Front) ioDeadline() time.Time {
	return time.Now().Add(f.opts.IOTimeout)
}

// proxySearch relays a keyword query to the first usable replica in
// ring order from the query's own hash (spreading search load across
// the fleet), failing over on connection errors.
func (f *Front) proxySearch(w *bufio.Writer, req transport.Request) error {
	order := f.ring.Successors(req.Query, nil)
	var lastErr error
	for _, idx := range order {
		if !f.mon.Usable(idx) {
			continue
		}
		rc, resp, err := f.openStream(idx, req)
		if err != nil {
			f.mon.ReportFailure(idx)
			lastErr = err
			continue
		}
		rc.close()
		if resp.Replica == "" {
			resp.Replica = f.opts.Replicas[idx].Name
		}
		return writeFlush(w, resp)
	}
	resp := transport.Response{
		Error:      "no replica available for search",
		Degraded:   true,
		Capability: transport.CapDown.String(),
		Replica:    f.opts.Name,
	}
	if lastErr != nil {
		resp.Error = fmt.Sprintf("no replica available for search: %v", lastErr)
	}
	return writeFlush(w, resp)
}

// mergedHave returns the sorted union of the client's Have list and the
// sequence numbers already relayed intact — the resume state replayed to
// the next replica on a re-route.
func mergedHave(have, relayed map[int]bool) []int {
	out := make([]int, 0, len(have)+len(relayed))
	for seq := range have {
		out = append(out, seq)
	}
	for seq := range relayed {
		if !have[seq] {
			out = append(out, seq)
		}
	}
	sort.Ints(out)
	return out
}

// proxyFetch admits, routes and relays one fetch stream, re-routing
// across replica death. A returned error closes the client connection —
// the deliberate signal once the response header is already relayed and
// the stream cannot be finished on any replica: the client's own
// redial/resume path takes over with its Have list intact.
func (f *Front) proxyFetch(clientConn net.Conn, w *bufio.Writer, requests <-chan transport.Request, req transport.Request, rng *rand.Rand) error {
	release, retryAfter, ok := f.gate.Admit(len(req.Have) > 0)
	if !ok {
		f.fm.sheds.Inc()
		f.logFetch(req, "", 0, 0, transport.ErrShed)
		return writeFlush(w, transport.Response{
			Error:        "load shed: front fetch budget exhausted",
			Shed:         true,
			RetryAfterMS: int(retryAfter / time.Millisecond),
			Replica:      f.opts.Name,
		})
	}
	defer release()

	have := make(map[int]bool, len(req.Have))
	for _, seq := range req.Have {
		have[seq] = true
	}
	relayed := make(map[int]bool)
	order := f.ring.Successors(req.Doc, nil)

	var (
		layout     core.Layout
		headerSent bool
		stopped    bool
		reroutes   int
		sent       int
		attempt    int // failed attempts, drives the seeded backoff
		lastDeg    *transport.Response
		servedBy   string
	)

	finish := func(err error) error {
		f.logFetch(req, servedBy, reroutes, sent, err)
		if err != nil {
			f.fm.fetchErrors.Inc()
		}
		return err
	}
	// end completes a stream: the fetch is logged before the terminator
	// is written, so a client that has read its end of stream always
	// finds the fetch in the front's log.
	end := func() error {
		finish(nil)
		if err := transport.WriteEndOfStream(w); err != nil {
			return err
		}
		return w.Flush()
	}

	// Two passes over the ring order: the second pass retries replicas
	// that failed on the first (a replica restarting mid-drill), with
	// the seeded backoff between failed attempts.
	maxTries := 2 * len(order)
	for try := 0; try < maxTries; try++ {
		idx := order[try%len(order)]
		if !f.mon.Usable(idx) && !headerSent {
			continue
		}
		if attempt > 0 {
			time.Sleep(f.opts.Retry.Backoff(attempt-1, rng))
		}
		rreq := req
		rreq.Have = mergedHave(have, relayed)
		rc, resp, err := f.openStream(idx, rreq)
		if err != nil {
			f.mon.ReportFailure(idx)
			attempt++
			continue
		}
		if !resp.OK {
			rc.close()
			switch {
			case resp.Shed:
				if !headerSent {
					// Relay the replica's own shed verbatim: the
					// retry-after hint is the overloaded replica's, not
					// the front's.
					return finish(writeFlush(w, resp))
				}
				// A resume round shed mid-reroute; treat like a failure
				// and walk on.
				attempt++
			case resp.Degraded:
				lastDeg = &resp
			default:
				if !headerSent {
					if resp.Replica == "" {
						resp.Replica = f.opts.Replicas[idx].Name
					}
					return finish(writeFlush(w, resp))
				}
				attempt++
			}
			continue
		}
		if resp.Layout == nil {
			rc.close()
			attempt++
			continue
		}
		if !headerSent {
			layout = *resp.Layout
			servedBy = f.opts.Replicas[idx].Name
			if resp.Replica == "" {
				resp.Replica = servedBy
			}
			if err := writeFlush(w, resp); err != nil {
				rc.close()
				return finish(err)
			}
			headerSent = true
		} else {
			if resp.Layout.N() != layout.N() || resp.Layout.BodySize != layout.BodySize {
				// The replicas disagree on geometry (corpus drift): the
				// relayed prefix and this stream cannot be mixed. Cut the
				// client loose; its own redial/resume recovers cleanly.
				rc.close()
				return finish(fmt.Errorf("shard: layout changed across re-route for %s: %w", req.Doc, transport.ErrReroute))
			}
			servedBy = f.opts.Replicas[idx].Name
		}
		attempt = 0

		done, relayErr := f.relayFrames(clientConn, w, rc, requests, relayed, &stopped, &sent)
		rc.close()
		if done {
			return end()
		}
		if relayErr != nil {
			// The client side failed (write error, connection gone, or a
			// protocol violation); nothing a different replica can fix.
			return finish(relayErr)
		}
		// The replica leg died mid-stream: re-route to the next ring
		// replica, replaying Have ∪ relayed.
		f.mon.ReportFailure(idx)
		f.fm.reroutes.Inc()
		reroutes++
		attempt++
		if stopped {
			// The client already asked to stop; it needs no more frames,
			// just the terminator.
			return end()
		}
	}

	if headerSent {
		return finish(fmt.Errorf("shard: every replica failed mid-stream for %s: %w", req.Doc, transport.ErrReroute))
	}
	if lastDeg != nil {
		return finish(writeFlush(w, *lastDeg))
	}
	f.logFetch(req, "", reroutes, sent, transport.ErrDegraded)
	return writeFlush(w, transport.Response{
		Error:      fmt.Sprintf("no replica available for %s", req.Doc),
		Degraded:   true,
		Capability: transport.CapDown.String(),
		Replica:    f.opts.Name,
	})
}

// relayFrames pumps one replica stream to the client. It returns
// done=true when the replica's end-of-stream terminator arrived; the
// caller writes the client's terminator. A
// nil error with done=false means the replica leg failed and the caller
// should re-route; a non-nil error means the client leg failed and the
// stream is unsalvageable.
func (f *Front) relayFrames(clientConn net.Conn, w *bufio.Writer, rc *replicaConn, requests <-chan transport.Request, relayed map[int]bool, stopped *bool, sent *int) (bool, error) {
	var frameBuf []byte
	for {
		// A stop request aborts the stream; client-connection closure
		// (reader channel closed) aborts the whole handler.
		select {
		case creq, ok := <-requests:
			if !ok {
				return false, io.EOF
			}
			if creq.Op != "stop" {
				return false, fmt.Errorf("shard: %q request during stream", creq.Op)
			}
			if !*stopped {
				*stopped = true
				if err := rc.conn.SetWriteDeadline(f.ioDeadline()); err == nil {
					if transport.WriteJSONLine(rc.w, transport.Request{Op: "stop"}) == nil {
						rc.w.Flush()
					}
				}
			}
		default:
		}
		if err := rc.conn.SetReadDeadline(f.ioDeadline()); err != nil {
			return false, nil
		}
		frame, err := transport.ReadFrameInto(rc.r, frameBuf)
		if err != nil {
			return false, nil // replica leg died: re-route
		}
		if frame == nil {
			return true, nil
		}
		frameBuf = frame
		if err := clientConn.SetWriteDeadline(f.ioDeadline()); err != nil {
			return false, err
		}
		if err := transport.WriteFrame(w, frame); err != nil {
			return false, err
		}
		if err := w.Flush(); err != nil {
			return false, err
		}
		*sent++
		// Only frames that pass their CRC here count as held by the
		// client: a frame corrupted on the replica's (emulated) weak
		// link must stay eligible for retransmission after a re-route.
		if pkt, perr := packet.Parse(frame); perr == nil {
			relayed[pkt.Seq] = true
		}
	}
}

// logFetch records one proxied fetch into the front's fetch log.
func (f *Front) logFetch(req transport.Request, replica string, reroutes, sent int, err error) {
	f.fm.fetchLog.Record(obs.FetchRecord{
		Doc:      req.Doc,
		Origin:   "front",
		Err:      transport.ErrorClass(err),
		Replica:  replica,
		Reroutes: reroutes,
		Sent:     sent,
		Have:     len(req.Have),
	})
}

var _ io.Closer = (*Front)(nil)
