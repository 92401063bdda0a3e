// Parallel entry points of the forest index: bulk build over a worker
// pool, a fan-out similarity join, and batched lookups. All of them are
// deterministic — the same inputs produce identical results at any worker
// count — so callers can scale with GOMAXPROCS without changing behavior.

package forest

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// Doc is one named document of a bulk build.
type Doc struct {
	ID   string
	Tree *tree.Tree
}

// normWorkers clamps a worker count: values below 1 mean "use every CPU".
func normWorkers(workers int) int {
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// BuildIndexes profiles the documents concurrently on a pool of workers
// and returns one pq-gram index per document, in input order. Profiling is
// the expensive phase of a bulk build (O(document) per tree), so this is
// where the parallelism pays; the forest itself is not touched.
func BuildIndexes(docs []Doc, pr profile.Params, workers int) []profile.Index {
	workers = normWorkers(workers)
	if workers > len(docs) {
		workers = len(docs)
	}
	bags := make([]profile.Index, len(docs))
	if workers <= 1 {
		for i, d := range docs {
			bags[i] = profile.BuildIndex(d.Tree, pr)
		}
		return bags
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(docs) {
					return
				}
				bags[i] = profile.BuildIndex(docs[i].Tree, pr)
			}
		}()
	}
	wg.Wait()
	return bags
}

// AddAll bulk-indexes the documents: trees are profiled concurrently on a
// worker pool, then merged into the sharded postings with one worker per
// stripe. If any ID is already indexed or appears twice in the batch, the
// whole batch is rejected and the forest is unchanged. workers < 1 means
// GOMAXPROCS.
func (f *Index) AddAll(docs []Doc, workers int) error {
	ids := make([]string, len(docs))
	for i, d := range docs {
		ids[i] = d.ID
	}
	return f.AddIndexes(ids, BuildIndexes(docs, f.pr, workers), workers)
}

// AddIndexes bulk-indexes precomputed bags (e.g. from BuildIndexes or a
// snapshot loader) under the given IDs. The bags are owned by the forest
// afterwards. The merge into the postings runs with one worker per shard
// stripe; because the stripes partition the tuple space, the workers never
// contend and the result is identical to a serial merge.
func (f *Index) AddIndexes(ids []string, bags []profile.Index, workers int) error {
	if len(ids) != len(bags) {
		return fmt.Errorf("forest: %d ids for %d bags", len(ids), len(bags))
	}
	workers = normWorkers(workers)
	f.mu.Lock()
	defer f.mu.Unlock()
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if _, ok := f.trees[id]; ok {
			return fmt.Errorf("forest: tree %q already indexed", id)
		}
		if seen[id] {
			return fmt.Errorf("forest: tree %q appears twice in batch", id)
		}
		seen[id] = true
	}
	docs := make([]uint32, len(ids))
	for i, id := range ids {
		docs[i] = f.registerLocked(id, bags[i], bags[i].Size()).doc
	}
	// One epoch advance per added document, matching the serial path, so
	// result caches see the same invalidation cadence either way.
	f.epoch.Add(uint64(len(ids)))
	if m := f.obs.Load(); m != nil {
		m.bulkOps.Inc()
		m.adds.Add(int64(len(ids)))
	}
	if workers == 1 || len(bags) == 1 {
		// Serial fast path: merge directly, no bucketing pass.
		for i, doc := range docs {
			for lt, c := range bags[i] {
				f.shardOf(lt).add(lt, doc, c)
			}
		}
		return nil
	}
	// Bucket each bag's tuples by shard (parallel over docs), then merge
	// (parallel over shards). Each merge worker owns a disjoint set of
	// stripes, so no shard locking is needed under the registry write
	// lock.
	type postDelta struct {
		lt profile.LabelTuple
		c  int
	}
	buckets := make([][numShards][]postDelta, len(bags))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bags) {
					return
				}
				for lt, c := range bags[i] {
					si := lt.Shard(shardBits)
					buckets[i][si] = append(buckets[i][si], postDelta{lt, c})
				}
			}
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for si := w; si < numShards; si += workers {
				s := &f.shards[si]
				for i := range buckets {
					for _, pd := range buckets[i][si] {
						s.add(pd.lt, docs[i], pd.c)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return nil
}

// LookupMany runs one approximate lookup per query concurrently and
// returns the result slices in query order. Each element equals what
// Lookup would return for that query. workers < 1 means GOMAXPROCS.
func (f *Index) LookupMany(queries []*tree.Tree, tau float64, workers int) [][]Match {
	workers = normWorkers(workers)
	if workers > len(queries) {
		workers = len(queries)
	}
	m := f.obs.Load()
	if m != nil {
		m.batchLookups.Inc()
		m.poolDepth.Set(int64(len(queries)))
	}
	out := make([][]Match, len(queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				out[i] = f.Lookup(queries[i], tau)
				if m != nil {
					// Remaining unclaimed work = the pool's queue depth.
					if d := int64(len(queries)) - next.Load(); d >= 0 {
						m.poolDepth.Set(d)
					} else {
						m.poolDepth.Set(0)
					}
				}
			}
		}()
	}
	wg.Wait()
	if m != nil {
		m.poolDepth.Set(0)
	}
	return out
}

// SimilarityJoin returns every unordered pair of indexed trees whose
// pq-gram distance is strictly below tau — the approximate join of the
// paper's related work (Guha et al.). It is §3.2's lookup
// {T ∈ F | dist(X, T) < τ} run once per indexed tree X, on the plan
// PlanMode picks, keeping each pair once, from its smaller ID. Results
// are sorted by distance, then IDs. The join fans out across GOMAXPROCS
// workers; use SimilarityJoinWorkers to pick the width.
//
// For tau > 1 every pair qualifies and the join degenerates to all pairs.
func (f *Index) SimilarityJoin(tau float64) []Pair {
	return f.SimilarityJoinWorkers(tau, 0)
}

// SimilarityJoinWorkers is SimilarityJoin with an explicit worker count
// (< 1 means GOMAXPROCS). The result is identical at every worker count.
func (f *Index) SimilarityJoinWorkers(tau float64, workers int) (pairs []Pair) {
	workers = normWorkers(workers)
	var sp *obs.Span
	if m := f.obs.Load(); m != nil {
		sp = m.col.StartTrace("forest.join")
		t0 := time.Now()
		defer func() {
			sp.SetAttr("pairs", int64(len(pairs)))
			sp.Finish()
			m.joins.Inc()
			m.joinPairs.Add(int64(len(pairs)))
			m.joinNS.ObserveSince(t0)
		}()
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	ids := f.idsLocked()
	sp.SetAttr("trees", int64(len(ids)))
	sp.SetAttr("workers", int64(workers))
	// Documents are strided over the workers. Each worker queries with a
	// copy of the document's bag that it owns: no bag lock is held during
	// the lookup, whose pruned finish takes other documents' bag locks.
	outs := make([][]Pair, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ids); i += workers {
				a := ids[i]
				q, err := f.bagCopyLocked(a, f.trees[a])
				if err != nil {
					panic(err) // a tier inconsistency; see Tier
				}
				ms, _ := f.lookupLocked(q, q.Size(), tau, nil, nil)
				for _, m := range ms {
					if m.TreeID > a {
						outs[w] = append(outs[w], Pair{A: a, B: m.TreeID, Distance: m.Distance})
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, o := range outs {
		pairs = append(pairs, o...)
	}
	sortPairs(pairs)
	return pairs
}
