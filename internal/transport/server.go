package transport

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mobweb/internal/core"
	"mobweb/internal/erasure"
	"mobweb/internal/fountain"
	"mobweb/internal/framecache"
	"mobweb/internal/obs"
	"mobweb/internal/planner"
	"mobweb/internal/search"
)

// ServerOptions tunes the document transmitter.
type ServerOptions struct {
	// Defaults are the plan parameters applied when a fetch request
	// leaves them unset.
	Defaults core.Config
	// PlannerOptions tunes the shared planning service (plan-cache byte
	// budget, entry cap). Its Defaults field is overridden by the
	// Defaults above so the two cannot disagree.
	PlannerOptions planner.Options
	// Planner, when non-nil, is a pre-built planning service shared with
	// other front ends (e.g. the HTTP gateway); it overrides
	// PlannerOptions and Defaults.
	Planner *planner.Planner
	// Injector emulates the wireless hop; nil means a clean channel.
	Injector FaultInjector
	// InjectorFactory, when set, builds a fresh injector per accepted
	// connection, overriding Injector. Load generators use it to give
	// every simulated client its own channel model (α drawn from a
	// mixture) without sharing mutable injector state across goroutines.
	InjectorFactory func() FaultInjector
	// PacketDelay paces the stream (per frame), letting demos visualize
	// progressive rendering; zero sends at full speed.
	PacketDelay time.Duration
	// IdleTimeout closes connections with no request activity; zero
	// means 2 minutes.
	IdleTimeout time.Duration
	// Name identifies this replica in fetch responses (the Replica wire
	// field) and fetch-log records; empty leaves responses unnamed.
	Name string
	// Admission, when set, gates every fetch stream: new fetches are shed
	// (typed wire refusal with a retry-after hint) before in-flight
	// retransmission rounds are starved. Nil admits everything.
	Admission Admitter
	// Capability, when set, is the replica's live degraded-operation
	// tier; nil means CapFull. See Capability for what each tier serves.
	Capability *CapabilityState
	// DegradedGammaMax is the redundancy-ratio clamp applied to fetches
	// while the capability tier is fetch-degraded or below; zero means
	// 1.25.
	DegradedGammaMax float64
	// Metrics, when set, receives the transmitter's connection, request
	// and frame counters, logs each served stream into the fetch log
	// behind /debug/fetches, and registers the planner/erasure/core
	// scrape-time probes. Nil disables server metrics at near-zero cost.
	Metrics *obs.Registry
	// DefaultCodec is the erasure codec applied when a fetch request does
	// not name one; the zero value is the fixed-rate Vandermonde codec.
	DefaultCodec erasure.CodecID
	// FountainSalt perturbs the fountain seeds derived from canonical
	// plan keys. Replicas configured with the same salt derive the same
	// seed for the same request, so a mid-fetch re-route continues the
	// identical stream; distinct salts make independent streams.
	FountainSalt uint64
}

// Server is the database gateway plus document transmitter of Figure 1:
// it indexes a document collection, answers keyword searches, and streams
// documents as QIC-ordered fault-tolerant packet sequences. Plan
// resolution goes through the shared planner, so retransmission rounds of
// one (doc, query, LOD, notion, γ) tuple reuse a cached plan instead of
// re-ranking and re-encoding.
type Server struct {
	engine  *search.Engine
	planner *planner.Planner
	opts    ServerOptions
	sm      serverMetrics
	bcast   broadcastHub

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	conns  map[net.Conn]bool
	wg     sync.WaitGroup
}

// NewServer wraps a search engine as a transmission server.
func NewServer(engine *search.Engine, opts ServerOptions) (*Server, error) {
	if engine == nil {
		return nil, fmt.Errorf("transport: nil engine")
	}
	if opts.Injector == nil {
		opts.Injector = NopInjector{}
	}
	if opts.IdleTimeout == 0 {
		opts.IdleTimeout = 2 * time.Minute
	}
	if opts.DegradedGammaMax == 0 {
		opts.DegradedGammaMax = 1.25
	}
	pl := opts.Planner
	if pl == nil {
		po := opts.PlannerOptions
		po.Defaults = opts.Defaults
		var err error
		pl, err = planner.New(engine, po)
		if err != nil {
			return nil, err
		}
	}
	if opts.Metrics != nil {
		// The probes surface stats that live in their own layers: the
		// planner's cache counters, the erasure codec's package-wide
		// inverse-cache/dispatch counters, and the receiver decode
		// counters. They run at scrape time, outside the registry lock.
		opts.Metrics.RegisterProbe("planner", func() any { return pl.Stats() })
		opts.Metrics.RegisterProbe("framecache", func() any { return pl.FrameStats() })
		opts.Metrics.RegisterProbe("erasure", erasure.MetricsProbe)
		opts.Metrics.RegisterProbe("fountain", fountain.MetricsProbe)
		opts.Metrics.RegisterProbe("core", core.MetricsProbe)
		if opts.Capability != nil {
			// The shard front tier's health checker reads this probe off
			// /debug/metrics to aggregate the fleet's capability tiers.
			opts.Metrics.RegisterProbe("capability", opts.Capability.Probe)
		}
	}
	return &Server{
		engine:  engine,
		planner: pl,
		opts:    opts,
		sm:      newServerMetrics(opts.Metrics),
		bcast:   broadcastHub{streams: make(map[broadcastKey]*broadcastStream)},
		conns:   make(map[net.Conn]bool),
	}, nil
}

// PlannerStats snapshots the planning service's cache counters.
func (s *Server) PlannerStats() planner.Stats { return s.planner.Stats() }

// FrameStats snapshots the shared cooked-frame cache's counters.
func (s *Server) FrameStats() framecache.Stats { return s.planner.FrameStats() }

// Serve accepts connections until Close; it always returns a non-nil
// error (ErrServerClosed after a clean shutdown).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.mu.Unlock()
		s.sm.connsAccepted.Inc()
		s.sm.connsActive.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
				s.sm.connsActive.Add(-1)
			}()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, closes live connections, and waits for handlers
// to exit. Live connections are snapshotted under the lock but closed
// after releasing it: net.Conn.Close can block (lingering TCP teardown),
// and holding s.mu across it would stall every accept and handler-exit
// path that needs the mutex.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	//mobweb:nondet-ok shutdown closes every conn; close order is immaterial
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// handle runs one connection's request loop. A dedicated reader goroutine
// feeds control messages through a channel so that a "stop" arriving
// mid-stream can abort the packet stream promptly. The handlerDone
// channel keeps the reader from blocking forever on a send after the
// handler has returned (e.g. a write error mid-stream with a Request
// already parsed), which would otherwise leak one goroutine per failed
// connection.
func (s *Server) handle(conn net.Conn) {
	injector := s.opts.Injector
	if s.opts.InjectorFactory != nil {
		injector = s.opts.InjectorFactory()
	}
	requests := make(chan Request)
	handlerDone := make(chan struct{})
	defer close(handlerDone)
	go func() {
		defer close(requests)
		scan := bufio.NewScanner(conn)
		scan.Buffer(make([]byte, 0, 4096), MaxControlLine)
		for scan.Scan() {
			req, err := DecodeRequest(scan.Bytes())
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
		if err := conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout)); err != nil {
			return
		}
		req, ok := <-requests
		if !ok {
			return
		}
		var err error
		switch req.Op {
		case "search":
			s.sm.reqSearch.Inc()
			err = s.handleSearch(w, req)
		case "fetch":
			s.sm.reqFetch.Inc()
			err = s.handleFetch(w, req, requests, injector)
		case "stop", "stopgen":
			// A stale stop/stopgen from a stream that already ended (e.g.
			// feedback racing the end-of-stream marker); ignore.
			continue
		default:
			s.sm.reqBad.Inc()
			err = WriteJSONLine(w, Response{Error: fmt.Sprintf("unknown op %q", req.Op)})
			if err == nil {
				err = w.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

func (s *Server) handleSearch(w *bufio.Writer, req Request) error {
	limit := req.Limit
	if limit <= 0 {
		limit = 10
	}
	hits := s.engine.Search(req.Query, limit)
	summaries := make([]HitSummary, len(hits))
	for i, h := range hits {
		summaries[i] = HitSummary{Name: h.Name, Title: h.Title, Score: h.Score}
	}
	if err := WriteJSONLine(w, Response{OK: true, Hits: summaries}); err != nil {
		return err
	}
	return w.Flush()
}

// refuse writes a terminal non-OK response and flushes it.
func (s *Server) refuse(w *bufio.Writer, resp Response) error {
	resp.Replica = s.opts.Name
	if err := WriteJSONLine(w, resp); err != nil {
		return err
	}
	return w.Flush()
}

func (s *Server) handleFetch(w *bufio.Writer, req Request, requests <-chan Request, injector FaultInjector) error {
	// Admission control runs before any planning work: a shed request
	// must cost the replica close to nothing. A non-empty Have list marks
	// a retransmission/resume round of an already-admitted fetch, which
	// draws on reserved headroom so new arrivals cannot starve it.
	if s.opts.Admission != nil {
		release, retryAfter, ok := s.opts.Admission.Admit(len(req.Have) > 0)
		if !ok {
			s.sm.sheds.Inc()
			return s.refuse(w, Response{
				Error:        "load shed: fetch budget exhausted",
				Shed:         true,
				RetryAfterMS: int(retryAfter / time.Millisecond),
			})
		}
		defer release()
	}

	// Capability tiers degrade the fetch path along the fallback tree
	// instead of failing it outright: search-only refuses streams,
	// degraded tiers clamp γ and refuse prefetch, clear-prefix-only
	// additionally skips parity rows below.
	mode := s.opts.Capability.Mode()
	if !mode.AllowsFetch() {
		s.sm.degraded.Inc()
		return s.refuse(w, Response{
			Error:      fmt.Sprintf("capability %s: fetch refused", mode),
			Degraded:   true,
			Capability: mode.String(),
		})
	}
	if req.Prefetch && !mode.AllowsPrefetch() {
		s.sm.degraded.Inc()
		return s.refuse(w, Response{
			Error:      fmt.Sprintf("capability %s: prefetch refused", mode),
			Degraded:   true,
			Capability: mode.String(),
		})
	}
	if mode.ClampsGamma() {
		max := s.opts.DegradedGammaMax
		if req.Gamma == 0 || req.Gamma > max {
			// The unset default could exceed the clamp too, so pin the
			// effective γ explicitly rather than trusting the default.
			req.Gamma = max
		}
	}

	codec := s.opts.DefaultCodec
	if req.Codec != "" {
		parsed, perr := erasure.ParseCodec(req.Codec)
		if perr != nil {
			s.sm.fetchErrors.Inc()
			return s.refuse(w, Response{Error: perr.Error()})
		}
		codec = parsed
	}
	// Clear-prefix-only tiers have no rateless mode: every fountain
	// packet is coded, so the tier serves the fixed-rate codec whose
	// systematic prefix streams without any parity encoding. The layout
	// in the response tells the client which codec it actually got.
	if mode.ClearPrefixOnly() {
		codec = erasure.CodecVandermonde
	}

	resolved, errMsg := s.buildPlan(req)
	if errMsg != "" {
		s.sm.fetchErrors.Inc()
		return s.refuse(w, Response{Error: errMsg})
	}

	// The codec picks the layout and the row source; the one send engine
	// streams either (DESIGN.md §18).
	var layout core.Layout
	src := rowSource{delay: s.opts.PacketDelay}
	if codec == erasure.CodecFountain {
		s.sm.fountainFetches.Inc()
		src.fountain, src.flushEach = true, true
		src.seed = req.Seed
		if src.seed == 0 {
			src.seed = resolved.FountainSeed(s.opts.FountainSalt)
		}
		layout = resolved.Plan.FountainLayout(src.seed)
	} else {
		layout = resolved.Plan.Layout()
	}
	st := newStreamState(req, layout, src.fountain)
	// Sending announces a fixed-rate stream's frame count; an open-loop
	// fountain stream has none, so it stays zero.
	resp := Response{OK: true, Layout: &layout, Replica: s.opts.Name}
	if src.fountain {
		src.next = fountainRows(&st)
	} else {
		// Clear-prefix-only tiers stream just the systematic rows: every
		// parity row is skipped, so no parity is ever encoded. A clean
		// channel still reconstructs (M intact rows per generation); a
		// lossy one pays extra retransmission rounds instead of failing.
		src.next = fixedRows(layout, mode.ClearPrefixOnly(), &st)
		probe := fixedRows(layout, mode.ClearPrefixOnly(), &st)
		for row, ok := probe(); ok; row, ok = probe() {
			if !st.have[row.id] {
				resp.Sending++
			}
		}
	}
	if mode != CapFull {
		resp.Capability = mode.String()
	}
	if err := WriteJSONLine(w, resp); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if src.fountain && req.Broadcast {
		// A broadcast subscriber takes its rows from the shared producer,
		// which paces the carousel itself.
		sub := s.subscribeBroadcast(resolved, src.seed, len(layout.Shapes))
		defer s.unsubscribeBroadcast(broadcastKey{plan: resolved.Key, seed: src.seed}, sub)
		src.next, src.queue, src.delay = nil, sub.ch, 0
	}
	return s.stream(w, req, resolved, src, &st, requests, injector)
}

// DecodeRequest parses one JSON control line. It is the single entry
// point for untrusted control data (see FuzzRequestDecode).
func DecodeRequest(line []byte) (Request, error) {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		return Request{}, err
	}
	return req, nil
}

// buildPlan resolves a fetch request through the shared planner into a
// frame-serving handle; it returns a client-facing error message rather
// than an error for request-level problems. Planner errors are safe to
// forward: request problems carry curated messages and build failures
// match what this layer historically surfaced.
func (s *Server) buildPlan(req Request) (*planner.Resolved, string) {
	resolved, err := s.planner.ResolveFrames(planner.Request{
		Doc:    req.Doc,
		Query:  req.Query,
		LOD:    req.LOD,
		Notion: req.Notion,
		Gamma:  req.Gamma,
	})
	if err != nil {
		return nil, err.Error()
	}
	return resolved, ""
}

var _ io.Closer = (*Server)(nil)
