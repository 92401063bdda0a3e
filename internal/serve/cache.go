// The result cache of the serving tier: an LRU over lookup and top-k
// answers that brings a threshold answer forward across writes instead of
// dropping it.
//
// Keys are (op, τ or k, source form, source); the source is an
// HTTP request's raw XML or a programmatic bag's canonical bytes (bagKey).
// The map compares it in full, so a hit is verified by byte equality and
// nothing is parsed to probe; two spellings of one document are two
// entries.
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
// an invalidation.

package serve

import (
	"container/list"
	"encoding/binary"
	"slices"
	"sync"

	"pqgram/internal/forest"
	"pqgram/internal/profile"
)

// Source forms of a queryKey: an XML string never equals a bag's bytes.
const (
	srcXML uint8 = iota // src is an HTTP request's raw query XML
	srcBag              // src is bagKey of a programmatic query bag
)

// queryKey identifies one cacheable computation. τ and k are disjoint by
// op (a threshold lookup zeroes k and vice versa).
type queryKey struct {
	op   uint8
	tau  float64
	k    int
	form uint8
	src  string
}

// bagKey is the canonical byte form of a query bag: its (tuple, count)
// pairs in ascending tuple order, so equal bags have equal keys whatever
// order their maps were built or iterated in.
func bagKey(q profile.Index) string {
	tuples := make([]profile.LabelTuple, 0, len(q))
	for lt := range q {
		tuples = append(tuples, lt)
	}
	slices.Sort(tuples)
	buf := make([]byte, 0, 16*len(tuples))
	for _, lt := range tuples {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(lt))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(q[lt]))
	}
	return string(buf)
}

// answer is one cached computation: the matches, the epoch they are
// valid at and the query's bag size |q|, which places the size window.
// out is shared with every response that hits it and is never mutated; a
// patch builds a new slice. q is the query's bag, derived by the first
// patch that re-scores a document and kept for the later ones: only
// answers that writes touch pay its 12 bytes per distinct tuple, and a
// patch then parses nothing.
type answer struct {
	out   []forest.Match
	epoch uint64
	qSize int
	q     profile.Bag
}

// cacheEntry is one cached answer in the LRU.
type cacheEntry struct {
	key  queryKey
	ans  answer        // guarded by resultCache.mu
	elem *list.Element // guarded by resultCache.mu
}

// resultCache is a mutex-guarded LRU. The lock is held only for map and
// list surgery — never across a forest traversal — so it does not
// serialize lookups.
type resultCache struct {
	mu      sync.Mutex
	max     int
	entries map[queryKey]*cacheEntry // guarded by mu
	lru     list.List                // guarded by mu; front = most recently used; values are *cacheEntry
	m       serveMetrics             // by value: the handles are fixed at New
}

func newResultCache(max int, m serveMetrics) *resultCache {
	return &resultCache{max: max, entries: make(map[queryKey]*cacheEntry, max), m: m}
}

// get returns the cached answer for key, whatever its epoch, and marks it
// most recently used.
func (c *resultCache) get(key queryKey) (answer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		return answer{}, false
	}
	c.lru.MoveToFront(e.elem)
	return e.ans, true
}

// put records an answer, evicting the least-recently-used entries past
// the capacity. An entry already valid at a later epoch is kept: a slow
// request must not replace a fresher answer with its own.
func (c *resultCache) put(key queryKey, ans answer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		if e.ans.epoch <= ans.epoch {
			e.ans = ans
		}
		c.lru.MoveToFront(e.elem)
		return
	}
	e := &cacheEntry{key: key, ans: ans}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	for len(c.entries) > c.max {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back.Value.(*cacheEntry))
	}
}

// invalidate evicts key's entry if it still holds an answer computed at
// epoch (a concurrent request may have refreshed it) and counts the
// invalidation.
func (c *resultCache) invalidate(key queryKey, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil && e.ans.epoch == epoch {
		c.removeLocked(e)
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
