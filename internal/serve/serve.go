// Package serve is the production serving tier over a pq-gram forest
// index: the layer that turns the library into a service built for heavy
// concurrent traffic. It puts two mechanisms in front of the forest
// lookup:
//
//  1. Result cache (cache.go) — an LRU of lookup/top-k results keyed on
//     an HTTP request's raw body, or on a query bag with its τ or k,
//     each stamped with the forest's mutation epoch. Every write
//     advances the epoch; a probe at a later epoch patches the answer,
//     keeps it or misses. The forest records the document behind each
//     epoch advance, so only the documents it names since the entry can
//     have changed: a threshold answer is kept if none of them is in it
//     or in the query's size window, and otherwise patched by re-scoring
//     just those. A stale threshold answer misses only when the forest's
//     records no longer reach back to it, or when more than maxPatch
//     documents need re-scoring; a stale top-k answer always misses. A
//     hit decodes nothing: the request its body names is stored with
//     the answer.
//  2. Admission control (admission.go) — a bounded in-flight semaphore
//     plus a bounded wait queue, with latency-driven backpressure: when
//     the windowed p95 of serve latency crosses the configured budget,
//     new requests are shed immediately (HTTP 429 + Retry-After) instead
//     of queueing behind work the service cannot absorb.
//
// The probe runs first, so that only a body the cache does not hold is
// decoded and range-checked, both before admission; a hit then passes
// admission like any request. A miss streams the query bag
// (xmlconv.StreamIndex) and runs the forest lookup. An answer, computed
// or patched, is cached at the epoch read after the probe, and only if
// that epoch is still current afterwards (the seqlock rule): one
// computed across a write never outlives its response.
//
// The invariant carried by the differential tests (diff_test.go): for any
// sequential script of mutations and lookups, responses with the cache
// enabled are byte-identical to responses with it disabled. Caching is an
// optimization, never a semantic.
//
// http.go adds the full HTTP surface (documents, lookups, explain,
// debug endpoints). cmd/pqserve is the one binary that assembles a
// service around it (store, admission, shutdown); examples/server only
// tours the handlers over an in-memory index.
package serve

import (
	"errors"
	"log/slog"
	"slices"
	"sync"
	"time"

	"pqgram/internal/core"
	"pqgram/internal/edit"
	"pqgram/internal/forest"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/store"
	"pqgram/internal/tree"
)

// ErrOverloaded is returned when admission control sheds a request: the
// in-flight queue is full or the latency budget is exceeded. HTTP maps it
// to 429 Too Many Requests with a Retry-After hint.
var ErrOverloaded = errors.New("serve: overloaded")

// Config tunes the serving tier. The zero value disables every
// mechanism: no cache, no admission limits, unbounded bodies — the
// behavior of calling the forest directly.
type Config struct {
	// CacheSize is the maximum number of cached lookup/top-k results.
	// 0 disables the result cache.
	CacheSize int

	// MaxInFlight bounds the lookups executing concurrently. 0 means
	// unlimited (no admission control by count).
	MaxInFlight int

	// MaxQueue bounds how many requests may wait for an in-flight slot
	// beyond MaxInFlight before new arrivals are shed. Only meaningful
	// with MaxInFlight > 0.
	MaxQueue int

	// P95Budget sheds new requests while the windowed p95 of serve
	// latency exceeds it. 0 disables latency-driven shedding.
	P95Budget time.Duration

	// BudgetWindow is the rotation period of the latency window backing
	// the p95 estimate. Defaults to 1s.
	BudgetWindow time.Duration

	// RetryAfter is the client backoff hint attached to shed responses.
	// Defaults to 1s.
	RetryAfter time.Duration

	// MaxBodyBytes bounds HTTP request bodies. Defaults to 8 MiB.
	MaxBodyBytes int64

	// Logger receives one structured line per HTTP request. nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.BudgetWindow <= 0 {
		c.BudgetWindow = time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// Result is one answered query plus how it was answered — the
// serving-tier visibility the load generator and the tests key on.
type Result struct {
	// Matches is the answer. It may be shared with other requests and
	// with the cache; treat it as read-only.
	Matches []forest.Match

	// Cached reports that the answer came from the result cache.
	Cached bool

	// Epoch is the forest mutation epoch the answer is known valid for.
	Epoch uint64
}

// Backend is the durable mutation sink of a store-backed server;
// *store.Segmented implements it. Queries never go through the backend —
// the forest answers them, merging its storage tier transparently.
//
// Pass a nil Backend (not a typed nil pointer) for a purely in-memory
// server.
type Backend interface {
	Put(id string, t *tree.Tree) (int, error)
	Remove(id string) error
	Update(id string, tn *tree.Tree, log edit.Log) (core.Stats, error)
}

// segmentedBackend is a Backend that keeps its documents in segments and
// reports their shape, which /stats shows; *store.Segmented is one.
type segmentedBackend interface {
	Stats() store.SegmentStats
}

// Server is the serving tier over one forest (optionally backed by a
// journaled store). It is safe for concurrent use. Create it with New;
// the zero value is not usable.
type Server struct {
	forest *forest.Index
	store  Backend
	cfg    Config
	col    *obs.Collector

	// storeMu serializes store mutations: the forest is internally
	// synchronized, but the journal is a single append stream.
	storeMu sync.Mutex

	cache *resultCache // nil when disabled
	adm   *admission
	m     serveMetrics

	httpState

	// hookMiss, when set, runs on every admitted request that missed the
	// cache, before the query bag is built. Tests use it to hold an
	// in-flight slot open deterministically; nil in production.
	hookMiss func()
}

// serveMetrics is the serving tier's obs wiring. The collector is always
// non-nil (New substitutes a private one), so the handles are too; they
// are fixed at New, so components hold the struct by value.
type serveMetrics struct {
	requests        *obs.Counter   // serve_requests
	cacheHits       *obs.Counter   // serve_cache_hit
	cacheMisses     *obs.Counter   // serve_cache_miss
	cachePatches    *obs.Counter   // serve_cache_patch (hits that re-scored changed documents)
	cacheInvalidate *obs.Counter   // serve_cache_invalidate (stale entries evicted, not brought forward: the sum of the three below)
	invalidateRing  *obs.Counter   // serve_cache_invalidate_ring (the forest's change records no longer reach the entry)
	invalidateCap   *obs.Counter   // serve_cache_invalidate_cap (more than maxPatch documents to re-score)
	invalidateTopK  *obs.Counter   // serve_cache_invalidate_topk (a top-k answer, stale after any write)
	shed            *obs.Counter   // serve_shed
	lookupNS        *obs.Histogram // serve_lookup_ns (end-to-end, incl. cache hits)
	inflight        *obs.Gauge     // serve_inflight
	queueDepth      *obs.Gauge     // serve_queue_depth

	httpRequests *obs.Counter   // http_requests
	httpErrors   *obs.Counter   // http_errors (status >= 400)
	httpNS       *obs.Histogram // http_request_ns
}

// New builds a serving tier over f. If st is non-nil, mutations are
// journaled through it (st.Forest() must be f). A nil collector is
// replaced by a private one, so instrumentation is always on; pass the
// collector you scrape to see it.
func New(f *forest.Index, st Backend, cfg Config, col *obs.Collector) *Server {
	if col == nil {
		col = obs.NewCollector()
	}
	cfg = cfg.withDefaults()
	s := &Server{forest: f, store: st, cfg: cfg, col: col}
	s.m = serveMetrics{
		requests:        col.Counter("serve_requests"),
		cacheHits:       col.Counter("serve_cache_hit"),
		cacheMisses:     col.Counter("serve_cache_miss"),
		cachePatches:    col.Counter("serve_cache_patch"),
		cacheInvalidate: col.Counter("serve_cache_invalidate"),
		invalidateRing:  col.Counter("serve_cache_invalidate_ring"),
		invalidateCap:   col.Counter("serve_cache_invalidate_cap"),
		invalidateTopK:  col.Counter("serve_cache_invalidate_topk"),
		shed:            col.Counter("serve_shed"),
		lookupNS:        col.Histogram("serve_lookup_ns"),
		inflight:        col.Gauge("serve_inflight"),
		queueDepth:      col.Gauge("serve_queue_depth"),
		httpRequests:    col.Counter("http_requests"),
		httpErrors:      col.Counter("http_errors"),
		httpNS:          col.Histogram("http_request_ns"),
	}
	if cfg.CacheSize > 0 {
		s.cache = newResultCache(cfg.CacheSize, s.m)
	}
	s.adm = newAdmission(cfg, s.m)
	col.RegisterFunc("serve_admission", s.adm.stats)
	s.initHTTP()
	return s
}

// Forest returns the index the server answers from.
func (s *Server) Forest() *forest.Index { return s.forest }

// Collector returns the collector the serving tier reports into.
func (s *Server) Collector() *obs.Collector { return s.col }

// query ops. Threshold lookups and top-k lookups are distinct cache
// populations even for equal τ/k values.
const (
	opLookup = iota // threshold lookup: tau is significant
	opTopK          // top-k lookup: k is significant
)

// Lookup answers a threshold lookup through the serving tier: the result
// cache, admission control, then the forest lookup. The query index must
// not be mutated while the call runs.
func (s *Server) Lookup(q profile.Index, tau float64) (Result, error) {
	req := request{op: opLookup, tau: tau}
	return s.query(s.probe(bagKey(req, q), req, true), func() (profile.Index, error) { return q, nil })
}

// TopK answers a top-k lookup through the serving tier; see Lookup.
func (s *Server) TopK(q profile.Index, k int) (Result, error) {
	if k <= 0 {
		return Result{Epoch: s.forest.Epoch()}, nil
	}
	req := request{op: opTopK, k: k}
	return s.query(s.probe(bagKey(req, q), req, true), func() (profile.Index, error) { return q, nil })
}

// probe is one request's cache probe, made before admission: the key
// (the caller's bytes, copied only if the answer is cached), the request
// (for a held body, the one its answer carries), whether the key may be
// cached, and the answer the cache held under it.
type probe struct {
	key  []byte
	req  request
	keep bool
	ans  answer
	held bool
}

// probe looks key up when the cache is on and the key may be cached.
func (s *Server) probe(key []byte, req request, cacheable bool) probe {
	p := probe{key: key, req: req, keep: cacheable && s.cache != nil}
	if p.keep {
		if p.ans, p.held = s.cache.get(key); p.held {
			p.req = p.ans.req
		}
	}
	return p
}

// query answers a probed request: admission, the held answer brought to
// the current epoch, and on a miss the bag (bag runs only then; its error
// is the request's) and the forest lookup.
func (s *Server) query(p probe, bag func() (profile.Index, error)) (Result, error) {
	s.m.requests.Inc()
	sp := s.col.StartTrace("serve.query")
	defer sp.Finish()
	sp.SetAttr("op", int64(p.req.op))
	if err := s.adm.acquire(); err != nil {
		s.m.shed.Inc()
		sp.SetAttr("shed", 1)
		return Result{}, err
	}
	defer s.adm.release()
	defer s.finishTimed(time.Now())

	epoch := s.forest.Epoch()
	if s.cache != nil {
		if out, ok := s.cached(p, epoch, bag, sp); ok {
			s.m.cacheHits.Inc()
			sp.SetAttr("cache_hit", 1)
			sp.SetAttr("matches", int64(len(out)))
			return Result{Matches: out, Cached: true, Epoch: epoch}, nil
		}
		s.m.cacheMisses.Inc()
	}
	if s.hookMiss != nil {
		s.hookMiss()
	}
	q, err := bag()
	if err != nil {
		return Result{}, err
	}
	var out []forest.Match
	if p.req.op == opLookup {
		out = s.forest.LookupIndex(q, p.req.tau)
	} else {
		out = s.forest.LookupIndexTopK(q, p.req.k)
	}
	// Publish only if no write completed while the answer was computed
	// (the seqlock rule): one that did may have been half seen.
	if p.keep && s.forest.Epoch() == epoch {
		s.cache.put(p.key, answer{req: p.req, out: out, epoch: epoch, qSize: q.Size()})
	}
	sp.SetAttr("matches", int64(len(out)))
	return Result{Matches: out, Epoch: epoch}, nil
}

// cached answers a probe at epoch from the answer it held: as it is if
// computed at that epoch, brought forward (patch) if older and the forest
// still names every document changed since. The probe ran before epoch
// was read, and an answer is cached only at an epoch that was current,
// so the answer is never fresher than epoch. A stale answer that cannot
// be brought forward is evicted, and the probe misses. A brought-forward
// answer is re-cached at epoch under the same seqlock rule as a computed
// one: only if no write completed while the patch read the forest.
func (s *Server) cached(p probe, epoch uint64, bag func() (profile.Index, error), sp *obs.Span) ([]forest.Match, bool) {
	switch {
	case !p.held:
		return nil, false
	case p.ans.epoch == epoch:
		return p.ans.out, true
	}
	fwd, patched, ok := s.patch(p, epoch, bag)
	if !ok {
		return nil, false
	}
	if patched > 0 {
		s.m.cachePatches.Inc()
		sp.SetAttr("cache_patched", int64(patched))
	}
	if s.forest.Epoch() == epoch {
		s.cache.put(p.key, fwd)
	}
	return fwd.out, true
}

// patch brings the held threshold answer forward to epoch and reports
// how many documents it re-scored; see cache.go. It evicts the answer,
// counting the cause, for a top-k answer, when the forest no longer names
// the documents changed in the epochs between, and when more than
// maxPatch documents need re-scoring.
func (s *Server) patch(p probe, epoch uint64, bag func() (profile.Index, error)) (answer, int, bool) {
	ans := p.ans
	if ans.req.op != opLookup {
		return s.evict(p, s.m.invalidateTopK)
	}
	ids, ok := s.forest.Changed(ans.epoch, epoch)
	if !ok {
		return s.evict(p, s.m.invalidateRing)
	}
	fwd := ans
	fwd.epoch = epoch
	// A changed document matters if the answer holds it or its size lies
	// in the window; the rest of the answer stands.
	relevant := make([]bool, len(ids))
	for _, m := range ans.out {
		if i, found := slices.BinarySearch(ids, m.TreeID); found {
			relevant[i] = true
		}
	}
	lo, hi := profile.SizeWindow(ans.qSize, ans.req.tau)
	n := 0
	for i, id := range ids {
		if !relevant[i] {
			size, _, ok := s.forest.TreeStats(id)
			relevant[i] = ok && lo <= size && size <= hi
		}
		if relevant[i] {
			if n++; n > maxPatch {
				return s.evict(p, s.m.invalidateCap)
			}
		}
	}
	if n == 0 {
		return fwd, 0, true
	}
	if fwd.q.Distinct() == 0 {
		// The query parsed when its answer was cached, so this cannot
		// fail; if it did, the miss would report the error.
		q, err := bag()
		if err != nil {
			return answer{}, 0, false
		}
		fwd.q = profile.Freeze(q)
	}
	kept := make([]forest.Match, 0, len(ans.out)+n)
	for _, m := range ans.out {
		if _, found := slices.BinarySearch(ids, m.TreeID); !found {
			kept = append(kept, m)
		}
	}
	for i, id := range ids {
		if !relevant[i] {
			continue
		}
		// A document removed since is simply gone from the answer.
		if b, ok := s.forest.Bag(id); ok {
			if d := profile.DistanceFrom(ans.qSize, b.Size(), fwd.q.IntersectSize(b)); d < ans.req.tau {
				kept = append(kept, forest.Match{TreeID: id, Distance: d})
			}
		}
	}
	forest.SortMatches(kept)
	if len(kept) == 0 {
		kept = nil // as the forest answers no match
	}
	fwd.out = kept
	return fwd, n, true
}

// evict drops a probe's stale answer from the cache, counting cause, and
// makes the probe a miss.
func (s *Server) evict(p probe, cause *obs.Counter) (answer, int, bool) {
	s.cache.invalidate(p.key, p.ans.epoch, cause)
	return answer{}, 0, false
}

// finishTimed records one served request's latency into both the
// cumulative histogram and the admission window driving backpressure.
func (s *Server) finishTimed(t0 time.Time) {
	d := time.Since(t0)
	s.m.lookupNS.Observe(d.Nanoseconds())
	s.adm.observe(d)
}

// --- mutations --------------------------------------------------------

// Put indexes t under id, replacing any existing document, journaled when
// the server is store-backed. Every mutation advances the forest epoch,
// and the forest records id behind each advance; see cache.go for how
// cached answers follow it.
func (s *Server) Put(id string, t *tree.Tree) (grams int, err error) {
	err = s.mutate(func() error {
		if s.store == nil {
			grams = s.forest.Put(id, t)
			return nil
		}
		grams, err = s.store.Put(id, t)
		return err
	})
	return grams, err
}

// Remove drops a document; see Put for journaling and the cache.
func (s *Server) Remove(id string) error {
	return s.mutate(func() error {
		if s.store == nil {
			return s.forest.Remove(id)
		}
		return s.store.Remove(id)
	})
}

// Update incrementally maintains one document's index from an edit log;
// see Put for journaling and the cache.
func (s *Server) Update(id string, tn *tree.Tree, log edit.Log) (st core.Stats, err error) {
	err = s.mutate(func() error {
		if s.store == nil {
			st, err = s.forest.Update(id, tn, log)
		} else {
			st, err = s.store.Update(id, tn, log)
		}
		return err
	})
	return st, err
}

// mutate runs one write: under storeMu when the server is store-backed
// (the journal is a single append stream).
func (s *Server) mutate(write func() error) error {
	if s.store != nil {
		s.storeMu.Lock()
		defer s.storeMu.Unlock()
	}
	return write()
}
