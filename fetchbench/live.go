package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/content"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/obs"
	"mobweb/internal/planner"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
	"mobweb/internal/transport"
)

// env is one set-up: the indexed corpus, an in-process server with the
// default options on a loopback listener, and the benchmark's record of
// every document version it handed the server.
type env struct {
	spec    workloadSpec
	seed    int64
	corpus  *corpus
	engine  *search.Engine
	planner *planner.Planner
	srv     *transport.Server
	ln      *chanListener
	addr    string
	reg     *obs.Registry // nil unless traced
	served  chan struct{}

	// indexNanos and indexDocs total the time spent in Engine.Add, at
	// set-up and by the churn writer.
	indexNanos, indexDocs atomic.Int64
}

// setup builds the corpus, indexes it on nproc goroutines, starts the
// server and runs the warm-up fetches. It returns the env and how long
// all of that took.
func setup(spec workloadSpec, seed int64, traced bool) (*env, time.Duration, error) {
	t0 := time.Now()
	e := &env{
		spec:   spec,
		seed:   seed,
		corpus: newCorpus(spec.Docs),
		engine: search.NewEngine(textproc.Options{}),
		served: make(chan struct{}),
	}
	if err := e.indexCorpus(); err != nil {
		return nil, 0, err
	}
	pl, err := planner.New(e.engine, planner.Options{})
	if err != nil {
		return nil, 0, err
	}
	e.planner = pl
	if traced {
		e.reg = obs.NewRegistry()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	e.ln = newChanListener(ln)
	e.addr = ln.Addr().String()
	e.srv, err = transport.NewServer(e.engine, transport.ServerOptions{
		Planner:         pl,
		InjectorFactory: e.ln.injector,
		Metrics:         e.reg,
	})
	if err != nil {
		ln.Close()
		return nil, 0, err
	}
	go func() {
		defer close(e.served)
		e.srv.Serve(e.ln)
	}()

	if n := e.warm(newStream(spec, seed, streamWarmup), spec.Warmup); n > 0 {
		e.close()
		return nil, 0, fmt.Errorf("%d of %d warm-up fetches failed", n, spec.Warmup)
	}
	return e, time.Since(t0), nil
}

// warm runs n untimed fetches from gen on nproc users, back to back, and
// returns how many failed.
func (e *env) warm(gen *stream, n int) int {
	var mu sync.Mutex
	left := n
	var failed atomic.Int64
	parallel(runtime.NumCPU(), func(int) {
		for {
			mu.Lock()
			if left == 0 {
				mu.Unlock()
				return
			}
			left--
			f := gen.next()
			mu.Unlock()
			if o := e.fetch(f, false); !o.ok {
				failed.Add(1)
			}
		}
	})
	return int(failed.Load())
}

// indexCorpus generates version 0 of every document and adds it to the
// engine, spread over nproc goroutines.
func (e *env) indexCorpus() error {
	var next atomic.Int64
	errs := make([]error, runtime.NumCPU())
	parallel(len(errs), func(w int) {
		for {
			i := int(next.Add(1) - 1)
			if i >= e.spec.Docs {
				return
			}
			if err := e.addVersion(i, 0); err != nil {
				errs[w] = err
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// addVersion generates a document version, records it as possibly live,
// indexes it, and then retires the version it replaced.
func (e *env) addVersion(doc, version int) error {
	text := genDoc(e.seed, doc, version, e.spec.DocBytes)
	d, err := text.build(docName(doc))
	if err != nil {
		return err
	}
	e.corpus.begin(doc, text.body)
	t0 := time.Now()
	if err := e.engine.Add(d); err != nil {
		return err
	}
	e.indexNanos.Add(int64(time.Since(t0)))
	e.indexDocs.Add(1)
	e.corpus.commit(doc)
	return nil
}

// close stops the server and waits for it.
func (e *env) close() {
	e.srv.Close()
	e.ln.Close()
	<-e.served
}

// parallel runs fn(0..n-1) on n goroutines and waits for all of them.
func parallel(n int, fn func(worker int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// chanListener hands the server one channel model per connection: the
// one the fetch on that connection was scheduled with. The client
// registers its local address and channel right after dialing; Accept
// waits for that registration and passes the channel to the server's
// injector factory. Accept serializes with the factory (one slot), so a
// connection's handler always receives its own fetch's channel.
type chanListener struct {
	net.Listener
	mu      sync.Mutex
	pending map[string]chan fetchSpec
	slot    chan fetchSpec
	done    chan struct{}
	once    sync.Once
}

func newChanListener(ln net.Listener) *chanListener {
	return &chanListener{
		Listener: ln,
		pending:  make(map[string]chan fetchSpec),
		slot:     make(chan fetchSpec, 1),
		done:     make(chan struct{}),
	}
}

// rendezvous returns the one-shot channel for a client address, creating
// it for whichever side arrives first.
func (l *chanListener) rendezvous(addr string) chan fetchSpec {
	l.mu.Lock()
	defer l.mu.Unlock()
	ch, ok := l.pending[addr]
	if !ok {
		ch = make(chan fetchSpec, 1)
		l.pending[addr] = ch
	}
	return ch
}

// register announces the channel a freshly dialed connection carries.
func (l *chanListener) register(conn net.Conn, f fetchSpec) {
	l.rendezvous(conn.LocalAddr().String()) <- f
}

// Accept implements net.Listener.
func (l *chanListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	addr := conn.RemoteAddr().String()
	var f fetchSpec
	select {
	case f = <-l.rendezvous(addr):
	case <-l.done:
		conn.Close()
		return nil, net.ErrClosed
	}
	l.mu.Lock()
	delete(l.pending, addr)
	l.mu.Unlock()
	select {
	case l.slot <- f:
	case <-l.done:
		conn.Close()
		return nil, net.ErrClosed
	}
	return conn, nil
}

// Close implements net.Listener.
func (l *chanListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return l.Listener.Close()
}

// injector is the server's InjectorFactory: the scheduled channel of the
// connection just accepted, as the transport's own Bernoulli injector.
func (l *chanListener) injector() transport.FaultInjector {
	var f fetchSpec
	select {
	case f = <-l.slot:
	case <-l.done:
		return transport.NopInjector{}
	}
	if f.Alpha <= 0 {
		return transport.NopInjector{}
	}
	model, err := channel.NewBernoulli(f.Alpha, f.ChanSeed)
	if err != nil {
		return transport.NopInjector{}
	}
	return transport.NewModelInjector(model)
}

// wireStats is what the client's socket saw over one fetch.
type wireStats struct {
	bytes, reads int64
	readWait     time.Duration
}

// countConn counts the bytes and Read calls of the client socket and,
// when timed, how long Read blocked.
type countConn struct {
	net.Conn
	st    *wireStats
	timed bool
}

func (c *countConn) Read(p []byte) (int, error) {
	var t0 time.Time
	if c.timed {
		t0 = time.Now()
	}
	n, err := c.Conn.Read(p)
	if c.timed {
		c.st.readWait += time.Since(t0)
	}
	c.st.bytes += int64(n)
	c.st.reads++
	return n, err
}

// outcome is one fetch as the user saw it.
type outcome struct {
	ok         bool
	why        string
	start, end time.Time
	firstUnit  time.Time
	dial       time.Duration
	wire       wireStats
	rounds     int
	refetched  int
	received   int
	corrupted  int
	payload    int
}

// fetch runs one user: dial a fresh connection, fetch the document with
// progressive rendering, close, and check the body and every rendered
// unit against the generated text.
func (e *env) fetch(f fetchSpec, timed bool) outcome {
	o := outcome{start: time.Now()}
	st := &wireStats{}
	dial := func() (net.Conn, error) {
		conn, err := net.Dial("tcp", e.addr)
		if err != nil {
			return nil, err
		}
		e.ln.register(conn, f)
		return &countConn{Conn: conn, st: st, timed: timed}, nil
	}
	conn, err := dial()
	o.dial = time.Since(o.start)
	if err != nil {
		o.end, o.why = time.Now(), "dial: "+err.Error()
		return o
	}
	c := transport.NewClient(conn)
	c.SetRedial(dial)
	c.Timeout = 30 * time.Second
	renderOK := true
	opts := transport.FetchOptions{
		Doc:       docName(f.Doc),
		Query:     queryText(e.seed, f.Doc, f.Query),
		LOD:       document.LODParagraph,
		Notion:    content.NotionIC,
		Caching:   true,
		MaxRounds: e.spec.MaxRounds,
		Codec:     f.Codec,
		OnProgress: func(p transport.Progress) {
			if len(p.NewUnits) == 0 {
				return
			}
			if o.firstUnit.IsZero() {
				o.firstUnit = time.Now()
			}
			for _, u := range p.NewUnits {
				if !e.corpus.unitMatches(f.Doc, u.Segment.OrigOff, u.Text, o.start) {
					renderOK = false
				}
			}
		},
	}
	if f.Query >= 0 {
		opts.Notion = content.NotionQIC
	}
	opts.AdaptGamma = e.spec.AdaptGamma && f.Codec == erasure.CodecVandermonde
	res, err := c.Fetch(opts)
	c.Close()
	o.end = time.Now()
	o.wire = *st
	if res != nil {
		o.rounds, o.refetched = res.Rounds, res.RefetchedPackets
		o.received, o.corrupted, o.payload = res.PacketsReceived, res.PacketsCorrupted, res.BytesReceived
	}
	switch {
	case err != nil:
		o.why = "fetch: " + err.Error()
	case res.Body == nil:
		o.why = "no body"
	case !e.corpus.bodyMatches(f.Doc, res.Body, o.start, o.end):
		o.why = "body differs from every version live during the fetch"
	case !renderOK:
		o.why = "a rendered unit differs from the document text"
	case o.firstUnit.IsZero():
		o.why = "no unit rendered"
	default:
		o.ok = true
	}
	return o
}

// corpus records every version of every document the benchmark gave the
// engine, with the interval in which it may have been served.
type corpus struct {
	mu   sync.RWMutex
	docs [][]version
}

type version struct {
	body []byte
	// from is when indexing of this version began; until is when the
	// next version finished indexing (zero while it is current).
	from, until time.Time
}

func newCorpus(docs int) *corpus { return &corpus{docs: make([][]version, docs)} }

// begin records a version about to be indexed: from now on a fetch may
// see it.
func (c *corpus) begin(doc int, body []byte) {
	c.mu.Lock()
	c.docs[doc] = append(c.docs[doc], version{body: body, from: time.Now()})
	c.mu.Unlock()
}

// commit retires the version the newest one replaced.
func (c *corpus) commit(doc int) {
	c.mu.Lock()
	if vs := c.docs[doc]; len(vs) > 1 {
		vs[len(vs)-2].until = time.Now()
	}
	c.mu.Unlock()
}

// live calls fn for each version that was live at some point in
// [start, end], newest first, until fn returns true.
func (c *corpus) live(doc int, start, end time.Time, fn func(body []byte) bool) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	vs := c.docs[doc]
	for i := len(vs) - 1; i >= 0; i-- {
		v := vs[i]
		if v.from.After(end) || (!v.until.IsZero() && v.until.Before(start)) {
			continue
		}
		if fn(v.body) {
			return true
		}
	}
	return false
}

// current returns the newest version of a document.
func (c *corpus) current(doc int) []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	vs := c.docs[doc]
	return vs[len(vs)-1].body
}

func (c *corpus) bodyMatches(doc int, body []byte, start, end time.Time) bool {
	return c.live(doc, start, end, func(want []byte) bool { return string(want) == string(body) })
}

// unitMatches checks one rendered unit: its text must be the body bytes
// at the unit's offset in a version live since the fetch began.
func (c *corpus) unitMatches(doc, off int, text string, start time.Time) bool {
	return c.live(doc, start, time.Now(), func(want []byte) bool { return unitIn(want, off, text) })
}

func unitIn(body []byte, off int, text string) bool {
	return text != "" && off >= 0 && off+len(text) <= len(body) && string(body[off:off+len(text)]) == text
}
