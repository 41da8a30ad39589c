// Package planner is the shared planning service between the front ends
// (TCP transport, HTTP gateway) and the FT-MRT core. Both front ends used
// to re-rank the document and re-encode every erasure generation from
// scratch on every fetch — including each retransmission round of the
// same (doc, query, LOD, notion, γ) tuple — in two independent copies of
// the request-resolution logic. The planner owns that logic once:
//
//   - canonical plan keys: document name + resolved LOD + notion + γ +
//     packet geometry + a canonicalized query-vector hash, so textually
//     different queries with the same occurrence vector share a plan;
//   - a bounded, byte-budgeted LRU of immutable *core.Plan values with
//     hit/miss/eviction/build-latency counters behind an expvar-style
//     Stats() snapshot;
//   - singleflight deduplication, so N concurrent fetches of one key
//     trigger exactly one core.NewPlan build;
//   - client-facing parameter validation (LOD/notion spellings, γ), so
//     malformed requests fail fast with a safe message instead of a deep
//     core/erasure error string.
//
// Together with core's lazy parity encoding, a repeat fetch of a cached
// plan performs zero ranking work and zero GF(2^8) encodes — the
// retransmission hot path of the paper's Caching strategy becomes a map
// lookup.
package planner

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"mobweb/internal/content"
	"mobweb/internal/core"
	"mobweb/internal/erasure"
	"mobweb/internal/framecache"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
)

// DefaultCacheBytes is the plan-cache byte budget applied when
// Options.CacheBytes is zero.
const DefaultCacheBytes = 64 << 20

// Options tunes a Planner.
type Options struct {
	// Defaults are the plan parameters applied when a request leaves
	// them unset (the transport server's ServerOptions.Defaults).
	Defaults core.Config
	// CacheBytes bounds the estimated total bytes of cached plans. Zero
	// selects DefaultCacheBytes; a negative value disables caching
	// (every resolution builds, though concurrent identical builds are
	// still deduplicated).
	CacheBytes int64
	// MaxEntries additionally bounds the number of cached plans; zero
	// means no entry cap (the byte budget alone governs).
	MaxEntries int
	// FrameCacheBytes bounds the shared cooked-frame cache behind
	// ResolveFrames (encoded wire frames, directly writable to sockets).
	// Zero selects framecache.DefaultCacheBytes; a negative value
	// disables frame caching, so every Frame call marshals privately.
	FrameCacheBytes int64
	// FrameCacheEntries additionally bounds the number of cached frames;
	// zero means no entry cap.
	FrameCacheEntries int
}

// Request names one plan to resolve, in wire spellings. Empty LOD/Notion
// and zero Gamma fall back to the planner's defaults.
type Request struct {
	// Doc is the document name.
	Doc string
	// Query is the free-text query whose occurrence vector orders units.
	Query string
	// LOD is the level-of-detail spelling (see ParseLOD).
	LOD string
	// Notion is the content-notion spelling (see ParseNotion).
	Notion string
	// Gamma is the redundancy ratio; zero uses the default.
	Gamma float64
}

// RequestError is a client-caused resolution failure carrying a message
// safe to surface verbatim to the client.
type RequestError struct {
	// NotFound distinguishes "no such document" (HTTP 404) from a bad
	// parameter (HTTP 400).
	NotFound bool
	// Msg is the client-facing message.
	Msg string
}

// Error implements error.
func (e *RequestError) Error() string { return e.Msg }

func badRequest(format string, args ...any) *RequestError {
	return &RequestError{Msg: fmt.Sprintf(format, args...)}
}

// Stats is a point-in-time snapshot of the planner's counters, in the
// spirit of an expvar export.
type Stats struct {
	// Hits counts resolutions served from the cache.
	Hits int64
	// Misses counts resolutions that required (or joined) a build.
	Misses int64
	// Coalesced counts resolutions that joined an in-flight build
	// instead of starting their own (singleflight savings).
	Coalesced int64
	// Builds counts completed core.NewPlan calls.
	Builds int64
	// BuildTime is the cumulative wall time spent inside core.NewPlan.
	BuildTime time.Duration
	// Evictions counts cache entries dropped to respect the budget.
	Evictions int64
	// Invalidations counts cached plans dropped because their document
	// was re-indexed since the plan was built.
	Invalidations int64
	// Entries and Bytes describe the cache's current occupancy.
	Entries int
	Bytes   int64
}

// cacheEntry is one cached plan plus the identity needed to detect
// staleness: the SC pointer the plan was ranked against. Re-adding a
// document to the engine swaps its SC, which invalidates the entry on
// next lookup. frameKey records the frame-cache plan key derived from
// this entry, so invalidation can drop the cooked frames too.
type cacheEntry struct {
	key      string
	frameKey string
	sc       *content.SC
	plan     *core.Plan
	cost     int64
}

// flightCall is one in-progress build that concurrent resolutions of the
// same key wait on.
type flightCall struct {
	wg   sync.WaitGroup
	plan *core.Plan
	err  error
}

// Planner resolves fetch requests into immutable transmission plans,
// caching and deduplicating builds. It is safe for concurrent use.
type Planner struct {
	engine *search.Engine
	opts   Options
	// frames is the shared cooked-frame cache fed by Resolved.Frame; nil
	// when Options.FrameCacheBytes is negative.
	frames *framecache.Cache

	mu      sync.Mutex
	ll      *list.List               // front = most recently used
	entries map[string]*list.Element // key → element (value *cacheEntry)
	bytes   int64
	flight  map[string]*flightCall
	// scTokens assigns each SC a short unique token embedded in frame
	// keys, so frames of a re-indexed document can never be confused
	// with frames of its replacement (pointer reuse notwithstanding).
	scTokens map[*content.SC]string
	scSeq    uint64

	hits, misses, coalesced    int64
	builds, evictions, invalid int64
	buildNanos                 int64
}

// New wraps a search engine as a planning service.
func New(engine *search.Engine, opts Options) (*Planner, error) {
	if engine == nil {
		return nil, fmt.Errorf("planner: nil engine")
	}
	if opts.CacheBytes == 0 {
		opts.CacheBytes = DefaultCacheBytes
	}
	p := &Planner{
		engine:   engine,
		opts:     opts,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		flight:   make(map[string]*flightCall),
		scTokens: make(map[*content.SC]string),
	}
	if opts.FrameCacheBytes >= 0 {
		p.frames = framecache.New(framecache.Options{
			Bytes:      opts.FrameCacheBytes,
			MaxEntries: opts.FrameCacheEntries,
		})
	}
	return p, nil
}

// Resolve returns the plan for a request, from cache when possible. A
// *RequestError signals a client-caused failure whose message is safe to
// forward; any other error is an internal build failure.
func (p *Planner) Resolve(req Request) (*core.Plan, error) {
	plan, _, _, err := p.resolve(req)
	return plan, err
}

// Resolved couples a plan with the canonical identity the shared frame
// cache keys by. Frame results are SHARED AND IMMUTABLE slices; callers
// that must mutate one (e.g. fault injection) copy it first.
type Resolved struct {
	// Plan is the resolved transmission plan.
	Plan *core.Plan
	// Key is the frame-cache plan key: the canonical plan key plus a
	// document-version token, so frames of a re-indexed document never
	// collide with frames of its replacement.
	Key string
	// canonKey is the canonical plan key without the document-version
	// token: identical across replicas resolving the same request, which
	// is what FountainSeed needs so a rerouted fetch continues the same
	// stream byte-identically on another replica.
	canonKey string
	planner  *Planner
}

// Cached reports whether frame caching is active. When false, Frame
// marshals a private slice per call (the pre-cache behaviour), so stream
// loops should prefer Plan.AppendFrame with a reusable buffer.
func (r *Resolved) Cached() bool { return r.planner.frames != nil }

// Frame returns the cooked wire frame for a global sequence number,
// serving it from the shared frame cache when enabled. The returned
// slice is shared and immutable when Cached(); writing through it
// corrupts every connection streaming the same document.
func (r *Resolved) Frame(seq int) ([]byte, error) {
	fc := r.planner.frames
	if fc == nil {
		return r.Plan.Frame(seq)
	}
	gen, row, err := r.Plan.Locate(seq)
	if err != nil {
		return nil, err
	}
	k := framecache.Key{Plan: r.Key, Gamma: r.Plan.Config().Gamma, Gen: gen, Row: row}
	// Try the closure-free hit path first; build the cook only on miss.
	if frame, ok := fc.Get(k); ok {
		return frame, nil
	}
	plan := r.Plan
	return fc.GetOrCook(k, func() ([]byte, error) {
		return plan.Frame(seq)
	})
}

// ResolveFrames resolves a request into a frame-serving handle. Errors
// are as for Resolve.
func (p *Planner) ResolveFrames(req Request) (*Resolved, error) {
	plan, key, sc, err := p.resolve(req)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	frameKey := key + "\x00" + p.scTokenLocked(sc)
	p.mu.Unlock()
	return &Resolved{Plan: plan, Key: frameKey, canonKey: key, planner: p}, nil
}

// FountainSeed derives the fountain stream seed for this plan under a
// server-wide salt. It is a pure function of (canonical plan key, salt),
// so every replica configured with the same salt streams byte-identical
// fountain packets for the same request — the property broadcast fan-out
// and mid-fetch re-routing rely on. The result is never zero (zero means
// "derive for me" in the transport request).
func (r *Resolved) FountainSeed(salt uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(r.canonKey))
	s := h.Sum64() ^ salt
	// splitmix64 finalizer: smear the salt across all bits.
	s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9
	s = (s ^ (s >> 27)) * 0x94d049bb133111eb
	s ^= s >> 31
	if s == 0 {
		s = 1
	}
	return s
}

// FountainFrame returns the cooked fountain wire frame for (seed, gen,
// seq), serving it from the shared frame cache when enabled. Fountain
// frames are cacheable for the same reason fixed-rate ones are — the
// stream is a pure function of (plan, codec, seed, gen, seq) — and the
// cache key carries codec and seed so the two codecs' frames can never
// collide on one plan. The returned slice is shared and immutable when
// Cached().
func (r *Resolved) FountainFrame(seed uint64, gen, seq int) ([]byte, error) {
	fc := r.planner.frames
	if fc == nil {
		return r.Plan.FountainFrame(seed, gen, seq)
	}
	k := framecache.Key{
		Plan:  r.Key,
		Gamma: r.Plan.Config().Gamma,
		Gen:   gen,
		Row:   seq,
		Codec: uint8(erasure.CodecFountain),
		Seed:  seed,
	}
	if frame, ok := fc.Get(k); ok {
		return frame, nil
	}
	plan := r.Plan
	return fc.GetOrCook(k, func() ([]byte, error) {
		return plan.FountainFrame(seed, gen, seq)
	})
}

// FrameStats returns a snapshot of the frame cache's counters (zero when
// frame caching is disabled).
func (p *Planner) FrameStats() framecache.Stats {
	if p.frames == nil {
		return framecache.Stats{}
	}
	return p.frames.Stats()
}

// resolve is the shared cache/singleflight/build path behind Resolve and
// ResolveFrames, returning the plan alongside its canonical key and the
// SC it was ranked against.
func (p *Planner) resolve(req Request) (*core.Plan, string, *content.SC, error) {
	sc, cfg, queryVec, err := p.resolveParams(req)
	if err != nil {
		return nil, "", nil, err
	}
	key := cacheKey(req.Doc, cfg, queryVec)

	p.mu.Lock()
	if elem, ok := p.entries[key]; ok {
		ent := elem.Value.(*cacheEntry)
		if ent.sc == sc {
			p.ll.MoveToFront(elem)
			p.hits++
			plan := ent.plan
			p.mu.Unlock()
			return plan, key, sc, nil
		}
		// The document was re-indexed since this plan was built; its
		// cooked frames are stale too.
		p.invalidateLocked(elem)
	}
	if call, ok := p.flight[key]; ok {
		p.coalesced++
		p.mu.Unlock()
		call.wg.Wait()
		return call.plan, key, sc, call.err
	}
	call := &flightCall{}
	call.wg.Add(1)
	p.flight[key] = call
	p.misses++
	p.mu.Unlock()

	start := time.Now() //mobweb:nondet-ok build-time stats, never part of plans or keys
	plan, buildErr := core.NewPlan(sc, queryVec, cfg)
	elapsed := time.Since(start) //mobweb:nondet-ok build-time stats

	p.mu.Lock()
	delete(p.flight, key)
	p.builds++
	p.buildNanos += elapsed.Nanoseconds()
	if buildErr == nil {
		p.insertLocked(key, sc, plan)
	}
	p.mu.Unlock()

	call.plan, call.err = plan, buildErr
	call.wg.Done()
	return plan, key, sc, buildErr
}

// scTokenLocked returns the document-version token for an SC, assigning
// the next one on first sight. Callers hold p.mu.
func (p *Planner) scTokenLocked(sc *content.SC) string {
	if t, ok := p.scTokens[sc]; ok {
		return t
	}
	p.scSeq++
	t := strconv.FormatUint(p.scSeq, 16)
	p.scTokens[sc] = t
	return t
}

// invalidateLocked drops one stale cache entry: its plan, its frame-cache
// residue, and its SC token. Callers hold p.mu. The frame cache's mutex
// nests strictly inside the planner's (framecache never calls back).
func (p *Planner) invalidateLocked(elem *list.Element) {
	ent := elem.Value.(*cacheEntry)
	if p.frames != nil && ent.frameKey != "" {
		p.frames.InvalidatePlan(ent.frameKey)
	}
	delete(p.scTokens, ent.sc)
	p.removeLocked(elem)
	p.invalid++
}

// Stats returns a snapshot of the planner's counters.
func (p *Planner) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Hits:          p.hits,
		Misses:        p.misses,
		Coalesced:     p.coalesced,
		Builds:        p.builds,
		BuildTime:     time.Duration(p.buildNanos),
		Evictions:     p.evictions,
		Invalidations: p.invalid,
		Entries:       p.ll.Len(),
		Bytes:         p.bytes,
	}
}

// String formats the snapshot for logs.
func (s Stats) String() string {
	return fmt.Sprintf("planner{hits %d, misses %d, coalesced %d, builds %d (%v), evictions %d, entries %d, %d bytes}",
		s.Hits, s.Misses, s.Coalesced, s.Builds, s.BuildTime.Round(time.Microsecond), s.Evictions, s.Entries, s.Bytes)
}

// resolveParams validates the request against the engine and defaults,
// returning the SC to rank, the canonical config and the query vector.
func (p *Planner) resolveParams(req Request) (*content.SC, core.Config, map[string]int, error) {
	sc, ok := p.engine.SC(req.Doc)
	if !ok {
		return nil, core.Config{}, nil, &RequestError{NotFound: true, Msg: fmt.Sprintf("unknown document %q", req.Doc)}
	}
	cfg := p.opts.Defaults
	if req.LOD != "" {
		lod, err := ParseLOD(req.LOD)
		if err != nil {
			return nil, core.Config{}, nil, badRequest("%s", err)
		}
		cfg.LOD = lod
	}
	if req.Notion != "" {
		notion, err := ParseNotion(req.Notion)
		if err != nil {
			return nil, core.Config{}, nil, badRequest("%s", err)
		}
		cfg.Notion = notion
	}
	if err := ValidateGamma(req.Gamma); err != nil {
		return nil, core.Config{}, nil, badRequest("%s", err)
	}
	if req.Gamma != 0 {
		cfg.Gamma = req.Gamma
	}
	canonical, err := cfg.Canonical()
	if err != nil {
		// A bad server default (not client input) — still client-visible,
		// matching the pre-planner behaviour of surfacing the message.
		return nil, core.Config{}, nil, badRequest("%s", err)
	}
	var queryVec map[string]int
	if req.Query != "" {
		queryVec = textproc.QueryVector(req.Query)
	}
	return sc, canonical, queryVec, nil
}

// cacheKey canonicalizes a resolved request. Everything that changes the
// resulting plan participates; the query enters as a hash of its sorted
// occurrence vector, so queries that stem to the same vector share a key.
func cacheKey(doc string, cfg core.Config, queryVec map[string]int) string {
	h := fnv.New64a()
	terms := make([]string, 0, len(queryVec))
	for t := range queryVec {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	for _, t := range terms {
		fmt.Fprintf(h, "%s=%d;", t, queryVec[t])
	}
	return doc + "\x00" +
		strconv.Itoa(int(cfg.LOD)) + "\x00" +
		strconv.Itoa(int(cfg.Notion)) + "\x00" +
		strconv.FormatUint(math.Float64bits(cfg.Gamma), 16) + "\x00" +
		strconv.Itoa(cfg.PacketSize) + "\x00" +
		strconv.Itoa(cfg.MaxGeneration) + "\x00" +
		strconv.FormatUint(h.Sum64(), 16)
}

// planCost estimates a plan's resident bytes once its parity is encoded:
// body + permuted copies, the eventual cooked packets, and per-segment
// bookkeeping. Charging the full post-encode size up front keeps the
// budget stable as lazy parity materializes.
func planCost(plan *core.Plan) int64 {
	segs := len(plan.Segments()) + len(plan.AccrualSegments())
	return int64(2*plan.BodySize()) +
		int64(plan.N()*plan.Config().PacketSize) +
		int64(128*segs) + 512
}

// insertLocked caches a freshly built plan and evicts from the LRU tail
// until the budget holds. Oversized plans (cost beyond the whole budget)
// are served but never cached. Callers hold p.mu.
func (p *Planner) insertLocked(key string, sc *content.SC, plan *core.Plan) {
	if p.opts.CacheBytes < 0 {
		return
	}
	cost := planCost(plan)
	if cost > p.opts.CacheBytes {
		return
	}
	frameKey := key + "\x00" + p.scTokenLocked(sc)
	if elem, ok := p.entries[key]; ok {
		// A concurrent build of an invalidated key may have raced us in;
		// replace it, dropping the raced entry's frames when it was built
		// against a different document version.
		if old := elem.Value.(*cacheEntry); p.frames != nil && old.frameKey != frameKey {
			p.frames.InvalidatePlan(old.frameKey)
		}
		p.removeLocked(elem)
	}
	ent := &cacheEntry{key: key, frameKey: frameKey, sc: sc, plan: plan, cost: cost}
	p.entries[key] = p.ll.PushFront(ent)
	p.bytes += cost
	for p.bytes > p.opts.CacheBytes || (p.opts.MaxEntries > 0 && p.ll.Len() > p.opts.MaxEntries) {
		// Capacity eviction keeps the frames: a rebuilt plan of the same
		// key and document version cooks byte-identical frames, so the
		// frame cache's own LRU governs their lifetime independently.
		oldest := p.ll.Back()
		if oldest == nil || oldest == p.ll.Front() {
			break
		}
		p.removeLocked(oldest)
		p.evictions++
	}
}

// removeLocked drops one cache element. Callers hold p.mu.
func (p *Planner) removeLocked(elem *list.Element) {
	ent := elem.Value.(*cacheEntry)
	p.ll.Remove(elem)
	delete(p.entries, ent.key)
	p.bytes -= ent.cost
}
