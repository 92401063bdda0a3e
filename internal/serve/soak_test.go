// The soak battery: the result cache and the admission queue under a
// worker storm with a concurrent writer. The properties proven here are
// the ones a latency histogram cannot show:
//
//   - No dropped responses: every issued request returns exactly once,
//     with either an answer or ErrOverloaded — never both, never
//     neither — and the serving-tier counters account for every one of
//     them exactly (hits + misses = successes).
//   - Monotone epoch invalidation: the epoch attached to successive
//     responses observed by any one client never moves backwards, even
//     while a writer is continuously mutating the index.
//   - Quiescent convergence: once the writer stops, the tier's answer to
//     a fresh query is byte-equal to the forest's own, and a repeat is a
//     cache hit — the storm leaves no stale state behind.
//
// Run under -race by `make test`; serve_test.go covers the same
// mechanisms deterministically, diff_test.go covers semantic
// invisibility.

package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pqgram/internal/gen"
	"pqgram/internal/profile"
)

// TestSoakStormWithWriter is the satellite race/soak test: GOMAXPROCS-
// scaled readers hammer a small query set (maximizing cache contention)
// through a deliberately narrow admission queue while one writer
// continuously Puts, Removes and incrementally Updates documents.
func TestSoakStormWithWriter(t *testing.T) {
	workers := 4 * runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	const (
		opsPerWorker = 150
		queryPool    = 6
		mutations    = 200
	)
	// MaxInFlight below the worker count and a finite queue so both the
	// semaphore wait path and the shed path are exercised for real.
	s, docs := newTestServer(t, Config{
		CacheSize:   32,
		MaxInFlight: workers / 2,
		MaxQueue:    workers,
	}, queryPool)

	queries := make([]profile.Index, queryPool)
	for i := range queries {
		queries[i] = queryOf(t, s, docs[i])
	}

	// The writer: a mutation storm over its own document set, so reader
	// queries and writer mutations contend on the postings but document
	// removal cannot starve the query pool.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(99))
		working := gen.DBLP(99, 100)
		for i := 0; i < mutations; i++ {
			// Each triple of iterations puts, incrementally updates, then
			// removes the same document, so every Update targets an id the
			// preceding Put just indexed.
			id := fmt.Sprintf("w-doc-%d", (i/3)%4)
			switch i % 3 {
			case 0:
				if _, err := s.Put(id, working); err != nil {
					t.Errorf("writer put: %v", err)
					return
				}
			case 1:
				tn, log, err := gen.Perturb(rng, working, 2, gen.XMLSafeMix)
				if err != nil {
					t.Errorf("writer perturb: %v", err)
					return
				}
				if _, err := s.Update(id, tn, log); err != nil {
					t.Errorf("writer update: %v", err)
					return
				}
				working = tn
			case 2:
				// Removing an id a previous round already removed fails
				// with "unknown tree" — the writer's only legal error, and
				// irrelevant to the properties under test.
				_ = s.Remove(id)
			}
		}
	}()

	var (
		wg        sync.WaitGroup
		successes atomic.Int64
		sheds     atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lastEpoch uint64
			for i := 0; i < opsPerWorker; i++ {
				q := queries[(w+i)%queryPool]
				var res Result
				var err error
				if i%5 == 4 {
					res, err = s.TopK(q, 3)
				} else {
					res, err = s.Lookup(q, 0.6)
				}
				switch {
				case err == nil:
					successes.Add(1)
					// Monotone epoch invalidation: a response handed to
					// this client must never be for an older epoch than
					// one it already saw.
					if res.Epoch < lastEpoch {
						t.Errorf("worker %d: epoch moved backwards %d -> %d", w, lastEpoch, res.Epoch)
						return
					}
					lastEpoch = res.Epoch
				case errors.Is(err, ErrOverloaded):
					sheds.Add(1)
				default:
					t.Errorf("worker %d op %d: unexpected error %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	<-writerDone
	if t.Failed() {
		return
	}

	// No dropped responses: every issued request is accounted for ...
	issued := int64(workers * opsPerWorker)
	if got := successes.Load() + sheds.Load(); got != issued {
		t.Fatalf("issued %d requests, %d responded (%d ok + %d shed)",
			issued, got, successes.Load(), sheds.Load())
	}
	if got := s.m.requests.Load(); got != issued {
		t.Fatalf("serve_requests = %d, want %d", got, issued)
	}
	if got := s.m.shed.Load(); got != sheds.Load() {
		t.Fatalf("serve_shed = %d, but %d callers saw ErrOverloaded", got, sheds.Load())
	}
	// ... and every success came from exactly one tier: a cache hit or a
	// miss this request answered from the forest.
	hits, misses := s.m.cacheHits.Load(), s.m.cacheMisses.Load()
	if hits+misses != successes.Load() {
		t.Fatalf("tier accounting: hits %d + misses %d != %d successes", hits, misses, successes.Load())
	}
	// The storm is over: nothing in flight, nothing queued.
	if got := s.m.inflight.Load(); got != 0 {
		t.Fatalf("serve_inflight = %d after the storm, want 0", got)
	}
	if got := s.m.queueDepth.Load(); got != 0 {
		t.Fatalf("serve_queue_depth = %d after the storm, want 0", got)
	}

	// Quiescent convergence: with the writer stopped, the tier must agree
	// with the forest exactly, and a repeat must hit the cache.
	q := queries[0]
	want := s.forest.LookupIndex(q, 0.6)
	r1, err := s.Lookup(q, 0.6)
	if err != nil {
		t.Fatalf("post-storm lookup: %v", err)
	}
	if !reflect.DeepEqual(r1.Matches, want) {
		t.Fatalf("post-storm answer diverged from the forest:\nserve:  %v\nforest: %v", r1.Matches, want)
	}
	r2, err := s.Lookup(q, 0.6)
	if err != nil || !r2.Cached {
		t.Fatalf("post-storm repeat: cached=%v err=%v, want hit", r2.Cached, err)
	}
	if !reflect.DeepEqual(r2.Matches, want) {
		t.Fatal("post-storm cache hit diverged from the forest")
	}
	if err := s.forest.SelfCheck(); err != nil {
		t.Fatalf("post-storm selfcheck: %v", err)
	}
}
