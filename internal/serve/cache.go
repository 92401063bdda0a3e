// The result cache of the serving tier: an LRU over lookup and top-k
// answers that brings a threshold answer forward across writes instead of
// dropping it.
//
// Every key is one byte string: its source form, then the source. An
// HTTP query's source is its request body as read, under its endpoint's
// form (srcLookup, srcTopK); a programmatic one's is its op, τ or k and
// its bag's canonical bytes (srcBag, bagKey). The map compares the key in
// full, so a hit is verified by byte equality. The probe copies nothing
// and decodes nothing: the request a body names — op, τ, k — travels
// with its answer, and only a stored key owns its bytes. A hit encodes
// the answer's matches as its endpoint replies them. Two spellings of
// one request (field order, spacing, escapes, trailing bytes) are two
// entries, and a body that could not be read in full is never cached.
//
// Each entry carries the forest epoch it was computed at. A probe at a
// later epoch patches, keeps or misses (Server.cached):
//
//   - The forest records the document behind each epoch advance
//     (forest.Index.Changed). An entry computed at e0 and probed at e1
//     asks it for the documents that changed in (e0, e1], whether the
//     write came through the Server or straight to the forest. Once the
//     forest's ring of records has overwritten e0+1 they are unknown, and
//     the probe misses. Top-k entries always miss: a write anywhere can
//     move the k-th distance.
//   - A changed document d can alter the threshold answer {T | dist(q, T)
//     < τ} only if d is in it or d's size lies in profile.SizeWindow(|q|,
//     τ) (Definition 3, exact). With no such d the answer is kept as it
//     is, nothing parsed.
//   - Otherwise each such d is dropped from the answer and re-added iff
//     one intersection of its bag with the query's puts it under τ. The
//     query's bag is re-derived from the key by the first patch and kept
//     with the answer. Past maxPatch such documents a recompute costs
//     about as much, and the probe misses.
//
// A stale entry that cannot be brought forward is evicted and counted as
// an invalidation, by its cause: a wrapped ring, an exceeded maxPatch or
// a top-k answer.

package serve

import (
	"container/list"
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"pqgram/internal/forest"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
)

// Source forms: the first byte of every key. A body's form names the
// endpoint that reads it.
const (
	srcBag    byte = iota // the key is bagKey's
	srcLookup             // the rest of the key is the body of a POST /lookup
	srcTopK               // the rest of the key is the body of a POST /topk
)

// request is one decoded query: its op and its τ or k (a threshold
// lookup zeroes k and vice versa).
type request struct {
	op  uint8
	tau float64
	k   int
}

// bagKey is the key of a programmatic query: srcBag, req's op, τ and k,
// and the bag's (tuple, count) pairs in ascending tuple order, so equal
// bags have equal keys whatever order their maps were built or iterated
// in.
func bagKey(req request, q profile.Index) []byte {
	tuples := make([]profile.LabelTuple, 0, len(q))
	for lt := range q {
		tuples = append(tuples, lt)
	}
	slices.Sort(tuples)
	buf := make([]byte, 0, 18+16*len(tuples))
	buf = append(buf, srcBag, req.op)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(req.tau))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(req.k))
	for _, lt := range tuples {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(lt))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(q[lt]))
	}
	return buf
}

// answer is one cached computation: the request it answers, the
// matches, the epoch they are valid at and the query's bag size |q|,
// which places the size window. out is shared with every response that
// hits it and is never mutated; a patch builds a new slice. q is the
// query's bag, derived by the first patch that re-scores a document and
// kept for the later ones: only answers that writes touch pay its 12
// bytes per distinct tuple, and a patch then parses nothing.
type answer struct {
	req   request
	out   []forest.Match
	epoch uint64
	qSize int
	q     profile.Bag
}

// cacheEntry is one cached answer in the LRU.
type cacheEntry struct {
	key  string
	ans  answer        // guarded by resultCache.mu
	elem *list.Element // guarded by resultCache.mu
}

// resultCache is a mutex-guarded LRU. The lock is held only for map and
// list surgery — never across a forest traversal — so it does not
// serialize lookups.
type resultCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*cacheEntry // guarded by mu
	lru     list.List              // guarded by mu; front = most recently used; values are *cacheEntry
	m       serveMetrics           // by value: the handles are fixed at New
}

func newResultCache(max int, m serveMetrics) *resultCache {
	return &resultCache{max: max, entries: make(map[string]*cacheEntry, max), m: m}
}

// get returns the cached answer for key, whatever its epoch, and marks it
// most recently used. It makes no copy of key: the conversion sits in the
// map index expression.
func (c *resultCache) get(key []byte) (answer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[string(key)]
	if e == nil {
		return answer{}, false
	}
	c.lru.MoveToFront(e.elem)
	return e.ans, true
}

// put records an answer, evicting the least-recently-used entries past
// the capacity. An entry already valid at a later epoch is kept: a slow
// request must not replace a fresher answer with its own.
func (c *resultCache) put(key []byte, ans answer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[string(key)]; e != nil {
		if e.ans.epoch <= ans.epoch {
			e.ans = ans
		}
		c.lru.MoveToFront(e.elem)
		return
	}
	e := &cacheEntry{key: string(key), ans: ans}
	e.elem = c.lru.PushFront(e)
	c.entries[e.key] = e
	for len(c.entries) > c.max {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back.Value.(*cacheEntry))
	}
}

// invalidate evicts key's entry if it still holds an answer computed at
// epoch (a concurrent request may have refreshed it), and counts the
// invalidation under its cause and in serve_cache_invalidate, the sum of
// the causes.
func (c *resultCache) invalidate(key []byte, epoch uint64, cause *obs.Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[string(key)]; e != nil && e.ans.epoch == epoch {
		c.removeLocked(e)
		cause.Inc()
		c.m.cacheInvalidate.Inc()
	}
}

//pqlint:locked c.mu
func (c *resultCache) removeLocked(e *cacheEntry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
}

// len returns the number of live entries (tests and the stats endpoint).
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// maxPatch caps the documents one patch re-scores. Each costs a bag read
// and one merge; past the cap a fresh lookup costs about as much, so the
// probe misses instead.
const maxPatch = 32
