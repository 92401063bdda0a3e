// The result cache of the serving tier: a strict-invalidation LRU over
// lookup and top-k answers.
//
// Keys are (op, τ or k, source form, source); the source is an
// HTTP request's raw XML or a programmatic bag's canonical bytes (bagKey).
// The map compares it in full, so a hit is verified by byte equality and
// nothing is parsed to probe; two spellings of one document are two
// entries. A probe hits only while the entry's forest epoch still matches,
// otherwise the entry is evicted and counted as an invalidation.

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

// cacheEntry is one cached answer. out is shared with every response that
// hits the entry; it is never mutated after insertion.
type cacheEntry struct {
	key   queryKey
	out   []forest.Match // guarded by resultCache.mu
	epoch uint64         // guarded by resultCache.mu
	elem  *list.Element  // guarded by resultCache.mu
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

// get returns the cached answer for key if it was computed under exactly
// the given epoch. A stale-epoch entry is evicted eagerly and counted as
// an invalidation.
func (c *resultCache) get(key queryKey, epoch uint64) ([]forest.Match, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		return nil, false
	}
	if e.epoch != epoch {
		// Strict invalidation: a mutation completed since this entry was
		// computed, so it must never be served again.
		c.removeLocked(e)
		c.m.cacheInvalidate.Inc()
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	return e.out, true
}

// put records an answer computed under the given epoch, evicting the
// least-recently-used entries past the capacity. The result slice is
// stored as-is and must be treated as immutable.
func (c *resultCache) put(key queryKey, out []forest.Match, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		e.out = out
		e.epoch = epoch
		c.lru.MoveToFront(e.elem)
		return
	}
	e := &cacheEntry{key: key, out: out, epoch: epoch}
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
