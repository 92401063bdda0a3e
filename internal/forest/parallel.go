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
// paper's related work (Guha et al.), powered by the index: candidate
// pairs are generated from the inverted postings (only trees sharing at
// least one pq-gram can have distance < 1), so disjoint pairs are never
// scored. Results are sorted by distance, then IDs. The join fans out
// across GOMAXPROCS workers; use SimilarityJoinWorkers to pick the width.
//
// For tau > 1 every pair qualifies and the join degenerates to all pairs.
func (f *Index) SimilarityJoin(tau float64) []Pair {
	return f.SimilarityJoinWorkers(tau, 0)
}

// SimilarityJoinWorkers is SimilarityJoin with an explicit worker count
// (< 1 means GOMAXPROCS). The result is identical at every worker count.
func (f *Index) SimilarityJoinWorkers(tau float64, workers int) (pairs []Pair) {
	workers = normWorkers(workers)
	var prunedPairs atomic.Int64
	var sp *obs.Span
	if m := f.obs.Load(); m != nil {
		sp = m.col.StartTrace("forest.join")
		t0 := time.Now()
		defer func() {
			sp.SetAttr("pairs", int64(len(pairs)))
			sp.SetAttr("pruned_size", prunedPairs.Load())
			sp.Finish()
			m.joins.Inc()
			m.joinPairs.Add(int64(len(pairs)))
			m.joinPrunedSize.Add(prunedPairs.Load())
			m.joinNS.ObserveSince(t0)
		}()
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	sp.SetAttr("trees", int64(len(f.trees)))
	sp.SetAttr("workers", int64(workers))
	if tau > 1 {
		return f.joinAllPairsLocked(tau, workers)
	}
	// Candidate generation is a map-reduce over the postings stripes:
	// accumulators sweep disjoint stripes summing per-pair overlaps, keyed
	// by the pair's doc numbers and partitioned by the smaller one;
	// reducers own disjoint pair partitions, merge the per-worker
	// fragments and score them. Overlap counts are integers, so the
	// grouping order cannot change any result.
	j := &joinSweep{
		tau:    tau,
		filter: f.PlanMode() != PlanExhaustive,
		sizes:  make([]int, len(f.docs)),
		ids:    make([]string, len(f.docs)),
	}
	for doc, e := range f.docs {
		if e != nil {
			j.sizes[doc], j.ids[doc] = int(e.size.Load()), e.id
		}
	}
	// Pairs with at least one evicted member come from a sequential sweep
	// of the storage tier's posting lists (tier.go); the stripe sweep
	// below covers exactly the resident×resident pairs, so the union is
	// every candidate pair once.
	tierPairs, tierPruned := f.joinTierPairsLocked(j)
	prunedPairs.Add(tierPruned)
	accumulate := func(from, stride int, emit func(k pairKey, ov int)) {
		pruned := int64(0)
		for si := from; si < numShards; si += stride {
			s := &f.shards[si]
			s.mu.RLock()
			for _, list := range s.postings {
				for i, a := range list {
					for _, b := range list[i+1:] {
						if k, ov, ok := j.pair(a, b); ok {
							emit(k, ov)
						} else {
							pruned++
						}
					}
				}
			}
			s.mu.RUnlock()
		}
		prunedPairs.Add(pruned)
	}
	if workers == 1 {
		// Serial fast path: one accumulator map, no shuffle.
		total := make(map[pairKey]int)
		accumulate(0, 1, func(k pairKey, ov int) { total[k] += ov })
		out := append(j.score(total), tierPairs...)
		sortPairs(out)
		return out
	}
	parts := make([][]map[pairKey]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make([]map[pairKey]int, workers)
			for i := range local {
				local[i] = make(map[pairKey]int)
			}
			accumulate(w, workers, func(k pairKey, ov int) { local[int(k.a)%workers][k] += ov })
			parts[w] = local
		}(w)
	}
	wg.Wait()
	outs := make([][]Pair, workers)
	for r := 0; r < workers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			total := parts[0][r]
			for w := 1; w < workers; w++ {
				for k, v := range parts[w][r] {
					total[k] += v
				}
			}
			outs[r] = j.score(total)
		}(r)
	}
	wg.Wait()
	var out []Pair
	for _, o := range outs {
		out = append(out, o...)
	}
	out = append(out, tierPairs...)
	sortPairs(out)
	return out
}

// pairKey names one candidate pair of a join by doc numbers, a < b.
type pairKey struct{ a, b uint32 }

// joinSweep is what the candidate sweeps of one similarity join share:
// the threshold, whether the size filter of planner.go applies (unless
// the planner is PlanExhaustive), and each doc number's bag size and ID as
// of the join's start.
type joinSweep struct {
	tau    float64
	filter bool
	sizes  []int
	ids    []string
}

// pair turns two postings of one tuple into their pair's accumulator key
// and the overlap the tuple contributes. ok is false when the filter is on
// and the bag sizes cannot be within tau even at maximal overlap; the
// filter evaluates the exact scoring expression, so the surviving pairs —
// and therefore the join result — are identical with it on or off.
func (j *joinSweep) pair(a, b posting) (k pairKey, ov int, ok bool) {
	if b.doc < a.doc {
		a, b = b, a
	}
	if sa, sb := j.sizes[a.doc], j.sizes[b.doc]; j.filter && distanceFrom(sa, sb, min(sa, sb)) >= j.tau {
		return pairKey{}, 0, false
	}
	return pairKey{a.doc, b.doc}, int(min(a.cnt, b.cnt)), true
}

// score returns the accumulated pairs within tau, in no particular order.
func (j *joinSweep) score(total map[pairKey]int) (out []Pair) {
	for k, ov := range total {
		if d := distanceFrom(j.sizes[k.a], j.sizes[k.b], ov); d < j.tau {
			a, b := j.ids[k.a], j.ids[k.b]
			if b < a {
				a, b = b, a
			}
			//pqlint:allow detcheck SimilarityJoinWorkers sortPairs-es the merged result before returning
			out = append(out, Pair{A: a, B: b, Distance: d})
		}
	}
	return out
}

// joinAllPairsLocked scores every pair directly; it requires f.mu held
// (read suffices). Rows are strided across workers; bag read locks are
// taken in ascending ID order, the global multi-entry order. Evicted
// bags are prefetched from the storage tier once up front — the all-pairs
// join reads every bag O(n) times, and tier fetches are positioned disk
// reads.
//
//pqlint:locked f.mu:r
func (f *Index) joinAllPairsLocked(tau float64, workers int) []Pair {
	ids := f.idsLocked()
	var tierBags map[string]profile.Index
	if f.tier != nil {
		tierBags = make(map[string]profile.Index)
		for _, id := range ids {
			//pqlint:allow lockcheck only the pointer's nil-ness is read; the pointer swaps only under the registry write lock, which f.mu:r excludes
			if f.trees[id].idx == nil {
				if bag, ok := f.tier.Bag(id); ok {
					tierBags[id] = bag
				}
			}
		}
	}
	bagOf := func(id string, e *treeEntry) profile.Index {
		if e.idx != nil { //pqlint:allow lockcheck every caller holds e.mu read-locked around the call, which excludes delta application
			return e.idx
		}
		return tierBags[id]
	}
	outs := make([][]Pair, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var out []Pair
			for i := w; i < len(ids); i += workers {
				a := f.trees[ids[i]]
				a.mu.RLock()
				abag := bagOf(ids[i], a)
				for j := i + 1; j < len(ids); j++ {
					b := f.trees[ids[j]]
					//pqlint:allow lockorder two bag locks of one class, taken in ascending tree-ID order (the global multi-entry order), so workers cannot deadlock
					b.mu.RLock()
					d := abag.Distance(bagOf(ids[j], b))
					b.mu.RUnlock()
					if d < tau {
						out = append(out, Pair{A: ids[i], B: ids[j], Distance: d})
					}
				}
				a.mu.RUnlock()
			}
			outs[w] = out
		}(w)
	}
	wg.Wait()
	var out []Pair
	for _, o := range outs {
		out = append(out, o...)
	}
	sortPairs(out)
	return out
}
