// Request batching: concurrent identical lookups coalesce into one
// shared postings traversal.
//
// A flight is keyed on (queryKey, forest epoch at request time). The
// first request under a key leads: it builds the query bag and traverses;
// requests that arrive with the same key while it is in flight wait for
// the leader and share its result. Because the epoch is part of the key,
// a request admitted after a mutation completed can never join a
// traversal started before it — the coalescing window is exactly one
// epoch, which is what makes batching semantically invisible.

package serve

import (
	"sync"

	"pqgram/internal/forest"
)

type flightKey struct {
	qk    queryKey
	epoch uint64
}

// flight is one in-progress shared traversal. joined is written under
// the batcher lock; out and err strictly before done is closed, and read
// only after <-done.
type flight struct {
	done   chan struct{}
	out    []forest.Match
	err    error
	joined int64 // guarded by batcher.mu; requests sharing this traversal, including the leader
}

type batcher struct {
	mu      sync.Mutex
	flights map[flightKey]*flight // guarded by mu
	m       serveMetrics          // by value: the handles are fixed at New
}

// Serving-tier lock order. The two locks are never actually nested today
// (the batcher runs the traversal unlocked and the cache is consulted
// outside any flight), but the declared order pins the direction future
// code must use.
//
//pqlint:lockorder batcher.mu < resultCache.mu

func newBatcher(m serveMetrics) *batcher {
	return &batcher{flights: make(map[flightKey]*flight), m: m}
}

// do runs fn once for all concurrent callers with the same key and epoch
// and hands every caller the same result or error. The second return
// reports whether this caller shared another request's traversal. fn
// must not call back into the batcher.
func (b *batcher) do(key queryKey, epoch uint64, fn func() ([]forest.Match, error)) ([]forest.Match, bool, error) {
	fk := flightKey{qk: key, epoch: epoch}
	b.mu.Lock()
	if fl, ok := b.flights[fk]; ok {
		fl.joined++
		b.mu.Unlock()
		<-fl.done
		b.m.batchJoined.Inc()
		return fl.out, true, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	fl.joined = 1
	b.flights[fk] = fl
	b.mu.Unlock()

	// The flight must resolve even if the traversal panics (a joiner
	// blocked on a flight that never closes would hang forever); the
	// panic itself propagates to the leader's caller.
	defer func() {
		b.mu.Lock()
		delete(b.flights, fk)
		joined := fl.joined
		b.mu.Unlock()
		close(fl.done)
		b.m.batchFlights.Inc()
		b.m.batchSize.Observe(joined)
	}()
	fl.out, fl.err = fn()
	return fl.out, false, fl.err
}
