// Package forest implements the persistent pq-gram index of a document
// collection (Augsten, Böhlen and Gamper, VLDB 2006, §3.2 and §9.1): the
// relation (treeId, pqg, cnt) of Figure 4, augmented with inverted postings
// pqg → (treeId, cnt) so that an approximate lookup touches only the trees
// that share at least one pq-gram with the query. Tree IDs are interned to
// dense doc numbers once, in the registry; the posting lists and the
// per-query accumulators work on the numbers and the IDs reappear only in
// results.
//
// The index supports incremental maintenance: Update applies the deltas of
// Algorithm 1 to both the per-tree bag and the postings, so a document
// change costs time proportional to the log, not to the forest.
//
// The in-memory postings need not hold the whole collection: a storage
// tier (tier.go, implemented by the segmented store in internal/store)
// can serve evicted documents' bags and postings from immutable on-disk
// segments. Every lookup, join and distance path merges the two
// populations and returns results byte-identical to the all-in-RAM index;
// see tier.go for the resident-XOR-evicted invariant this rests on.
//
// # Concurrency
//
// The index is safe for concurrent use as the shared artifact the paper
// targets: many clients looking up while edit feeds stream in. The inverted
// postings are lock-striped into shards keyed by label-tuple hash, each
// per-tree bag is guarded by its own RWMutex, and a registry RWMutex guards
// the tree table. Lookups, distance queries and incremental updates of
// different documents all proceed in parallel; only the structural
// operations (Add, Remove, Put, AddAll) and SelfCheck take the registry
// write lock and briefly exclude everything else.
//
// Concurrent Update/ApplyDeltas calls against the same document serialize
// on the document's lock and keep the index internally consistent, but the
// logs must still form one coherent edit sequence — interleaving
// independently derived logs for the same document is a logic error, with
// or without locking, exactly as in single-threaded use.
//
// Lock ordering is registry → tree entry → postings shard; shard locks are
// never held while acquiring an entry lock, and the two bag locks of
// Distance are taken in ascending tree-ID order. The storage tier's own
// lock nests after all of them: tier reads run under the registry lock
// and never call back into the forest.
package forest

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pqgram/internal/core"
	"pqgram/internal/edit"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// shardBits fixes the number of postings shards to 1<<shardBits. 32 shards
// keep writer collisions rare at typical GOMAXPROCS without bloating the
// struct; the routing hash is profile.LabelTuple.Shard.
const shardBits = 5

// numShards is the number of lock stripes of the inverted postings.
const numShards = 1 << shardBits

// posting is one entry of a posting list: a document's dense number (see
// Index.docs) and the tuple's multiplicity in that document's bag.
type posting struct{ doc, cnt uint32 }

// shard is one stripe of the inverted postings pqg → (doc, cnt). Each list
// is kept strictly ascending by doc number. Its mutex guards the map and
// every list reachable from it; structural operations holding the
// registry write lock exclude every shard reader and writer wholesale,
// which is the Index.mu:w alternative of the guard.
type shard struct {
	mu       sync.RWMutex
	postings map[profile.LabelTuple][]posting // guarded by mu or Index.mu:w
}

// searchDoc returns the position of doc in the ascending list, or the
// position it would be inserted at.
func searchDoc(list []posting, doc uint32) (int, bool) {
	return slices.BinarySearchFunc(list, doc, func(p posting, d uint32) int { return cmp.Compare(p.doc, d) })
}

// add merges one posting. Callers hold s.mu for writing, or the registry
// write lock (which excludes all shard access).
//
//pqlint:locked s.mu
func (s *shard) add(lt profile.LabelTuple, doc uint32, c int) {
	list := s.postings[lt]
	i := len(list) // bulk builds hand out ascending numbers: append
	if i > 0 && list[i-1].doc >= doc {
		var found bool
		if i, found = searchDoc(list, doc); found {
			list[i].cnt += uint32(c)
			return
		}
	}
	s.postings[lt] = slices.Insert(list, i, posting{doc, uint32(c)})
}

// sub takes c off doc's posting and drops the posting once it reaches
// zero; it reports false, changing nothing, if the posting holds less
// than c. Same locking contract as add.
//
//pqlint:locked s.mu
func (s *shard) sub(lt profile.LabelTuple, doc uint32, c int) bool {
	list := s.postings[lt]
	i, found := searchDoc(list, doc)
	if !found || list[i].cnt < uint32(c) {
		return false
	}
	if list[i].cnt -= uint32(c); list[i].cnt > 0 {
		return true
	}
	if len(list) == 1 {
		delete(s.postings, lt)
	} else {
		s.postings[lt] = slices.Delete(list, i, i+1)
	}
	return true
}

// treeEntry is one indexed tree: its bag, the bag's lock, and the bag
// cardinality cached so that lookups can score candidates without taking
// the bag lock at all.
//
// idx == nil marks an evicted entry (tier.go): the bag lives in the
// storage tier, the postings are absent from the shards, and distinct
// caches the bag's distinct-tuple count (written only under the registry
// write lock, like idx itself on eviction/promotion).
//
// id and doc are the entry's two names — the caller's string and the dense
// number the postings and the per-query accumulators use — fixed when the
// entry is registered.
type treeEntry struct {
	mu       sync.RWMutex
	idx      profile.Index // guarded by mu or Index.mu:w
	size     atomic.Int64
	distinct int    // guarded by Index.mu
	id       string // guarded by Index.mu
	doc      uint32 // guarded by Index.mu
}

// Index is the pq-gram index of a forest of named trees. It is safe for
// concurrent use; see the package comment for the exact guarantees.
type Index struct {
	pr profile.Params

	// mu guards the trees table. Write lock = structural changes
	// (Add/Remove/Put/AddAll) and SelfCheck; every other operation holds
	// the read lock for its full duration, so structural ops never
	// interleave with an in-flight lookup or update.
	mu    sync.RWMutex
	trees map[string]*treeEntry // guarded by mu

	// docs interns tree IDs to dense doc numbers: docs[e.doc] == e for
	// every registered entry, and the nil slots are exactly the numbers on
	// the free list, which registration reuses before growing docs. An
	// entry keeps its number across eviction and promotion.
	docs   []*treeEntry // guarded by mu
	free   []uint32     // guarded by mu
	shards [numShards]shard

	// obs is the attached instrumentation, nil when the index is not
	// observed (the default). Hot paths load it once at entry; see
	// metrics.go.
	obs atomic.Pointer[metrics]

	// plan is the query-planning mode (PlanMode); see planner.go. The
	// zero value is PlanAuto.
	plan atomic.Int32

	// epoch is the mutation epoch of the index: a counter advanced by
	// every operation that can change lookup results (Add, Remove, Put,
	// bulk builds, incremental delta application). Result caches key
	// their entries on it — see Epoch for the exact protocol. Structural
	// ops under the registry write lock advance it once; delta
	// applications, which run concurrently with lookups, advance it both
	// before the first change and after the last one (seqlock-style), so
	// an epoch observed unchanged across a read brackets a window with no
	// completed mutation.
	epoch atomic.Uint64

	// tier is the storage tier serving evicted documents (tier.go), nil
	// when every document is resident. Attached once at open time by the
	// segmented store.
	tier Tier // guarded by mu
}

// The package's lock-acquisition order, enforced by the lockorder
// analyzer. The registry lock is always outermost, per-document bag
// locks nest inside it, and postings stripes inside those.
// The one multi-instance acquisition of a class, the two bag locks of
// Distance, is sanctioned separately: always in ascending tree-ID order.
//
//pqlint:lockorder Index.mu < treeEntry.mu < shard.mu

// New creates an empty forest index with the given pq-gram parameters.
func New(pr profile.Params) *Index {
	if err := pr.Validate(); err != nil {
		panic(err)
	}
	f := &Index{
		pr:    pr,
		trees: make(map[string]*treeEntry),
	}
	for i := range f.shards {
		f.shards[i].postings = make(map[profile.LabelTuple][]posting)
	}
	return f
}

func (f *Index) shardOf(lt profile.LabelTuple) *shard {
	return &f.shards[lt.Shard(shardBits)]
}

// Params returns the pq-gram parameters of the index.
func (f *Index) Params() profile.Params { return f.pr }

// Epoch returns the current mutation epoch of the index. The epoch
// advances (by at least one) whenever a mutation that can change lookup
// results completes; it never moves backwards. A cached lookup result is
// valid for serving exactly when the epoch it was computed under equals
// the current epoch. Writers advance the epoch before their first
// visible change and after their last one, so the safe caching protocol
// is: read e1 := Epoch(), run the lookup, read e2 := Epoch(); the result
// may be cached under e1 only if e1 == e2. A later read that still
// observes e1 proves no mutation completed in between.
func (f *Index) Epoch() uint64 { return f.epoch.Load() }

// Len returns the number of indexed trees.
func (f *Index) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.trees)
}

// Has reports whether a tree with the given ID is indexed.
func (f *Index) Has(id string) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	_, ok := f.trees[id]
	return ok
}

// IDs returns the indexed tree IDs in ascending order.
func (f *Index) IDs() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.idsLocked()
}

//pqlint:locked f.mu:r
func (f *Index) idsLocked() []string {
	out := make([]string, 0, len(f.trees))
	for id := range f.trees {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Add indexes a tree under the given ID. It fails if the ID is taken.
func (f *Index) Add(id string, t *tree.Tree) error {
	return f.AddIndex(id, profile.BuildIndex(t, f.pr))
}

// AddIndex indexes a precomputed pq-gram index (e.g. one loaded from disk)
// under the given ID. The index is owned by the forest afterwards and must
// not be modified by the caller.
func (f *Index) AddIndex(id string, idx profile.Index) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.addIndexLocked(id, idx)
}

// addIndexLocked requires f.mu held for writing; under the write lock the
// shards need no locking of their own.
//
//pqlint:locked f.mu
func (f *Index) addIndexLocked(id string, idx profile.Index) error {
	if _, ok := f.trees[id]; ok {
		return fmt.Errorf("forest: tree %q already indexed", id)
	}
	e := f.registerLocked(id, idx, idx.Size())
	for lt, c := range idx {
		f.shardOf(lt).add(lt, e.doc, c)
	}
	f.epoch.Add(1)
	if m := f.obs.Load(); m != nil {
		m.adds.Inc()
	}
	return nil
}

// registerLocked enters a new tree into the registry under a free doc
// number. The most recently freed number goes first, so a Put that
// replaces a tree hands the new bag the old one's number.
//
//pqlint:locked f.mu
func (f *Index) registerLocked(id string, idx profile.Index, size int) *treeEntry {
	e := &treeEntry{idx: idx, id: id}
	e.size.Store(int64(size))
	if n := len(f.free); n > 0 {
		e.doc, f.free = f.free[n-1], f.free[:n-1]
		f.docs[e.doc] = e
	} else {
		e.doc = uint32(len(f.docs))
		f.docs = append(f.docs, e)
	}
	f.trees[id] = e
	return e
}

// Remove drops a tree from the index.
func (f *Index) Remove(id string) error { return f.RemoveSwap(id, nil) }

//pqlint:locked f.mu
func (f *Index) removeLocked(id string) error {
	e, ok := f.trees[id]
	if !ok {
		return fmt.Errorf("forest: tree %q not indexed", id)
	}
	for lt, c := range e.idx {
		f.shardOf(lt).sub(lt, e.doc, c)
	}
	delete(f.trees, id)
	f.docs[e.doc] = nil
	f.free = append(f.free, e.doc)
	f.epoch.Add(1)
	if m := f.obs.Load(); m != nil {
		m.removes.Inc()
	}
	return nil
}

// Put indexes t under id, atomically replacing any existing tree with that
// ID, and returns the bag cardinality of the new index. It is the upsert
// the serving path needs: with separate Has/Remove/Add calls two writers
// can interleave, with Put they cannot.
func (f *Index) Put(id string, t *tree.Tree) int {
	idx := profile.BuildIndex(t, f.pr)
	n := idx.Size()
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.trees[id]; ok {
		f.removeLocked(id)
	}
	f.addIndexLocked(id, idx)
	if m := f.obs.Load(); m != nil {
		m.puts.Inc()
	}
	return n
}

// TreeIndex returns a copy of the pq-gram index of one tree, or nil if the
// ID is unknown. The copy is the caller's: mutating it cannot corrupt the
// forest. Callers that only need the cardinalities should use TreeStats,
// which does not copy.
func (f *Index) TreeIndex(id string) profile.Index {
	f.mu.RLock()
	defer f.mu.RUnlock()
	e := f.trees[id]
	if e == nil {
		return nil
	}
	bag, err := f.bagCopyLocked(id, e)
	if err != nil {
		return nil
	}
	return bag
}

// bagCopyLocked returns a copy of one entry's bag that the caller owns:
// a clone of a resident bag, taken under its lock, or the tier's fresh
// copy of an evicted one. It requires f.mu held (read suffices), which
// keeps the document from being promoted or re-flushed mid-read, and
// fails only on a tier inconsistency (see bagOfLocked).
//
//pqlint:locked f.mu:r
func (f *Index) bagCopyLocked(id string, e *treeEntry) (profile.Index, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.idx == nil {
		return f.bagOfLocked(id, e)
	}
	return e.idx.Clone(), nil
}

// TreeStats returns the bag cardinality and the number of distinct tuples
// of one tree's index without copying the bag.
func (f *Index) TreeStats(id string) (size, distinct int, ok bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	e := f.trees[id]
	if e == nil {
		return 0, 0, false
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.idx == nil {
		return int(e.size.Load()), e.distinct, true
	}
	return int(e.size.Load()), len(e.idx), true
}

// ForEachTree calls fn once per indexed tree in ascending ID order, passing
// the internal bag (for resident trees) or a tier-fetched copy (for
// evicted ones). fn must treat the bag as read-only and must not retain
// it after returning; the bag's lock is held for the duration of the call.
// Iteration stops at the first error, which is returned. This is the
// traversal the store uses to serialize the forest without copying every
// resident bag.
func (f *Index) ForEachTree(fn func(id string, idx profile.Index) error) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, id := range f.idsLocked() {
		e := f.trees[id]
		e.mu.RLock()
		bag, err := f.bagOfLocked(id, e)
		if err == nil {
			err = fn(id, bag)
		}
		e.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Size returns the total bag cardinality over all trees (the number of
// rows a (treeId, pqg, 1)-normalized relation would have).
func (f *Index) Size() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := int64(0)
	for _, e := range f.trees {
		n += e.size.Load()
	}
	return int(n)
}

// Update incrementally maintains the index of one tree after it has been
// edited, given the resulting tree and the log of inverse edit operations
// (Algorithm 1 applied to both the per-tree bag and the postings). It
// returns the per-step statistics of the underlying maintenance run.
func (f *Index) Update(id string, tn *tree.Tree, log edit.Log) (core.Stats, error) {
	m := f.obs.Load()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	e, ok := f.trees[id]
	if !ok {
		return core.Stats{}, fmt.Errorf("forest: tree %q not indexed", id)
	}
	iPlus, iMinus, st, err := core.Deltas(tn, log, f.pr)
	if err != nil {
		return st, err
	}
	err = f.applyDeltasEntry(e, id, iPlus, iMinus)
	if m != nil && err == nil {
		m.updates.Inc()
		m.updateGramsPlus.Add(int64(iPlus.Size()))
		m.updateGramsMinus.Add(int64(iMinus.Size()))
		m.updateNS.ObserveSince(t0)
	}
	return st, err
}

// ApplyDeltas applies precomputed index deltas (I⁺, I⁻ from core.Deltas)
// to one tree's bag and the postings. Callers that persist deltas (e.g.
// the journaled store) use this to replay them.
func (f *Index) ApplyDeltas(id string, iPlus, iMinus profile.Index) error {
	m := f.obs.Load()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	e, ok := f.trees[id]
	if !ok {
		return fmt.Errorf("forest: tree %q not indexed", id)
	}
	err := f.applyDeltasEntry(e, id, iPlus, iMinus)
	if m != nil && err == nil {
		m.updates.Inc()
		m.updateGramsPlus.Add(int64(iPlus.Size()))
		m.updateGramsMinus.Add(int64(iMinus.Size()))
		m.updateNS.ObserveSince(t0)
	}
	return err
}

// applyDeltasEntry requires f.mu held for reading. The entry lock is held
// across both the bag and the postings phase so that updates to the same
// document serialize as a whole and never observe each other half-applied.
//
//pqlint:locked f.mu:r
func (f *Index) applyDeltasEntry(e *treeEntry, id string, iPlus, iMinus profile.Index) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.idx == nil {
		// Deltas mutate the resident bag and the in-memory postings; the
		// segmented store promotes a flushed document before updating it.
		return fmt.Errorf("forest: tree %q is evicted; promote it before applying deltas", id)
	}
	// Delta application runs under the registry *read* lock, concurrent
	// with lookups, so the epoch is advanced on both sides of the change
	// (seqlock-style): a lookup that observes the same epoch before and
	// after its traversal is guaranteed not to have raced a completed
	// mutation. The exit bump happens even on error — a failed
	// application may have partially changed the bag, and a spurious
	// cache invalidation is always safe.
	f.epoch.Add(1)
	defer f.epoch.Add(1)
	if err := core.ApplyDeltas(e.idx, iPlus, iMinus); err != nil {
		return fmt.Errorf("forest: tree %q: %w", id, err)
	}
	e.size.Add(int64(iPlus.Size() - iMinus.Size()))
	for lt, c := range iMinus {
		s := f.shardOf(lt)
		s.mu.Lock()
		ok := s.sub(lt, e.doc, c)
		s.mu.Unlock()
		if !ok {
			return fmt.Errorf("forest: postings for tree %q underflow", id)
		}
	}
	for lt, c := range iPlus {
		s := f.shardOf(lt)
		s.mu.Lock()
		s.add(lt, e.doc, c)
		s.mu.Unlock()
	}
	return nil
}

// SelfCheck verifies the internal consistency of the index: docs must be
// the inverse of the entries' doc numbers with the free list naming
// exactly its nil slots; every posting list must be strictly ascending by
// doc number, live in the shard its tuple routes to and carry positive
// counts; the postings must be exactly the transposition of the resident
// bags (so evicted entries and free numbers have none); and the cached bag
// sizes must match the bags. Evicted entries are checked against the
// storage tier instead: the tier must hold their bag and the cached size
// and distinct count must match it. It takes the registry write lock, so
// it is atomic with respect to every other operation. It is O(index) and
// intended for tests and integrity audits after crashes.
func (f *Index) SelfCheck() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	// Each entry owns a distinct slot and each free number a distinct nil
	// slot, so once the counts add up no slot is unaccounted for.
	for id, e := range f.trees {
		if e.id != id || int(e.doc) >= len(f.docs) || f.docs[e.doc] != e {
			return fmt.Errorf("forest: tree %q is not registered under its doc number %d", id, e.doc)
		}
	}
	freed := make(map[uint32]bool, len(f.free))
	for _, doc := range f.free {
		if int(doc) >= len(f.docs) || f.docs[doc] != nil || freed[doc] {
			return fmt.Errorf("forest: free list names doc number %d, which is in use, out of range or listed twice", doc)
		}
		freed[doc] = true
	}
	if len(f.trees)+len(f.free) != len(f.docs) {
		return fmt.Errorf("forest: %d doc numbers for %d trees and %d free", len(f.docs), len(f.trees), len(f.free))
	}
	resident := 0 // distinct (tree, tuple) pairs the postings must hold
	for id, e := range f.trees {
		if e.idx == nil {
			bag, err := f.bagOfLocked(id, e)
			if err != nil {
				return err
			}
			if got := e.size.Load(); got != int64(bag.Size()) {
				return fmt.Errorf("forest: cached size of evicted tree %q is %d, tier bag has %d", id, got, bag.Size())
			}
			if e.distinct != len(bag) {
				return fmt.Errorf("forest: cached distinct of evicted tree %q is %d, tier bag has %d", id, e.distinct, len(bag))
			}
			continue
		}
		if got, n := e.size.Load(), e.idx.Size(); got != int64(n) {
			return fmt.Errorf("forest: cached size of tree %q is %d, want %d", id, got, n)
		}
		resident += len(e.idx)
	}
	// Ascending lists cannot name a (tree, tuple) pair twice, so postings
	// that all match a bag entry and number as many as the bag entries are
	// the transposition.
	total := 0
	for si := range f.shards {
		for lt, list := range f.shards[si].postings {
			if int(lt.Shard(shardBits)) != si {
				return fmt.Errorf("forest: tuple %016x stored in shard %d, routes to %d",
					uint64(lt), si, lt.Shard(shardBits))
			}
			if len(list) == 0 {
				return fmt.Errorf("forest: empty posting list kept for tuple %016x", uint64(lt))
			}
			for i, p := range list {
				if i > 0 && list[i-1].doc >= p.doc {
					return fmt.Errorf("forest: posting list of tuple %016x not strictly ascending at doc number %d", uint64(lt), p.doc)
				}
				if int(p.doc) >= len(f.docs) || f.docs[p.doc] == nil {
					return fmt.Errorf("forest: posting of tuple %016x names free doc number %d", uint64(lt), p.doc)
				}
				e := f.docs[p.doc]
				if e.idx == nil {
					return fmt.Errorf("forest: evicted tree %q has a posting", e.id)
				}
				if p.cnt == 0 || int(p.cnt) != e.idx[lt] {
					return fmt.Errorf("forest: posting count for tree %q is %d, want %d", e.id, p.cnt, e.idx[lt])
				}
			}
			total += len(list)
		}
	}
	if total != resident {
		return fmt.Errorf("forest: %d postings, resident bags hold %d", total, resident)
	}
	return nil
}

// Match is one approximate-lookup result.
type Match struct {
	TreeID   string
	Distance float64
}

// Lookup returns every indexed tree whose pq-gram distance to the query
// tree is strictly below tau, sorted by ascending distance (ties by ID).
// This is the approximate lookup of §3.2: {T ∈ F | dist(X, T) < τ}.
func (f *Index) Lookup(query *tree.Tree, tau float64) []Match {
	return f.LookupIndex(profile.BuildIndex(query, f.pr), tau)
}

// LookupIndex is Lookup for a precomputed query index. The candidate
// strategy is a planner decision (see PlanMode in planner.go): by default
// the threshold-aware pruned path handles queries it can provably answer
// identically, and the exhaustive overlap accumulation covers the rest
// (τ ≥ 1, empty query bags, tiny collections).
func (f *Index) LookupIndex(q profile.Index, tau float64) []Match {
	m := f.obs.Load()
	var sp *obs.Span
	if m != nil {
		sp = m.col.StartTrace("forest.lookup")
	}
	out, _ := f.lookupIndexSpanned(q, tau, m, sp)
	sp.Finish()
	return out
}

// lookupIndexSpanned is the LookupIndex body with the trace span threaded
// through: the span (nil-safe) receives the plan decision and per-stage
// work attributes, and the chosen plan's name is returned for the explain
// API. Metric recording lives here too, so explained queries count like
// any other.
func (f *Index) lookupIndexSpanned(q profile.Index, tau float64, m *metrics, sp *obs.Span) ([]Match, string) {
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	qSize := q.Size()
	f.mu.RLock()
	defer f.mu.RUnlock()
	sp.SetAttr("q_size", int64(qSize))
	sp.SetAttr("trees", int64(len(f.trees)))
	out, plan := f.lookupLocked(q, qSize, tau, m, sp)
	sp.SetAttr("plan", int64(planCode(plan)))
	sp.SetAttr("matches", int64(len(out)))
	if m != nil {
		m.lookups.Inc()
		m.lookupMatches.Add(int64(len(out)))
		m.lookupNS.ObserveSince(t0)
	}
	return out, plan
}

// lookupLocked answers one threshold lookup of a query bag of size qSize
// on the plan the planner picks, and names the plan. The metrics and the
// span are nil-safe; the similarity join passes nil for both. It requires
// f.mu held (read suffices).
//
//pqlint:locked f.mu:r
func (f *Index) lookupLocked(q profile.Index, qSize int, tau float64, m *metrics, sp *obs.Span) ([]Match, string) {
	switch {
	case tau > 1:
		// Trees sharing no pq-gram (distance exactly 1) can qualify only
		// for thresholds above 1; scan the whole forest then.
		scan := sp.Child("scan")
		sc := f.overlapsLocked(q, m, sp, scan)
		var out []Match
		for doc, e := range f.docs {
			if e == nil {
				continue
			}
			if d := distanceFrom(qSize, int(e.size.Load()), int(sc.acc[doc].ov)); d < tau {
				out = append(out, Match{TreeID: e.id, Distance: d})
			}
		}
		sc.release()
		sortMatches(out)
		scan.Finish()
		return out, planScanAll
	case f.usePrunedLocked(qSize, tau):
		return f.lookupPrunedLocked(q, qSize, tau, m, sp), planPruned
	default:
		return f.lookupExhaustiveLocked(q, qSize, tau, m, sp), planExhaustive
	}
}

// lookupExhaustiveLocked accumulates the full overlap of every tree
// sharing at least one tuple with the query and scores them all — the
// reference lookup the pruned path must match. It requires f.mu held
// (read suffices) and tau ≤ 1.
//
//pqlint:locked f.mu:r
func (f *Index) lookupExhaustiveLocked(q profile.Index, qSize int, tau float64, m *metrics, sp *obs.Span) []Match {
	scan := sp.Child("scan")
	sc := f.overlapsLocked(q, m, sp, scan)
	var out []Match
	for _, doc := range sc.touched {
		e := f.docs[doc]
		if d := distanceFrom(qSize, int(e.size.Load()), int(sc.acc[doc].ov)); d < tau {
			out = append(out, Match{TreeID: e.id, Distance: d})
		}
	}
	sc.release()
	sortMatches(out)
	scan.Finish()
	return out
}

// overlapsLocked accumulates |I(query) ∩ I(T)| per tree — the resident
// ones via the postings, the evicted ones via the storage tier's runs —
// into a pooled scratch the caller must release: sc.acc[doc].ov is the
// overlap and sc.touched lists the docs sharing at least one tuple with
// the query. This one kernel serves the exhaustive lookup, the τ > 1 scan
// and top-k. It requires f.mu held (read suffices); the query tuples are
// grouped by shard so each stripe is locked once. The scan span (nil-safe)
// receives the resident work attributes, and the tier read its own child
// of sp.
//
//pqlint:locked f.mu:r
func (f *Index) overlapsLocked(q profile.Index, m *metrics, sp, scan *obs.Span) *lookupScratch {
	sc := f.scratchLocked(q)
	var scanned int64
	for si := range sc.byShard {
		if len(sc.byShard[si]) == 0 {
			continue
		}
		s := &f.shards[si]
		s.mu.RLock()
		for _, ti := range sc.byShard[si] {
			t := &sc.tuples[ti]
			list := s.postings[t.lt]
			scanned += int64(len(list))
			for _, p := range list {
				sc.add(p.doc, min(p.cnt, uint32(t.qc)))
			}
		}
		s.mu.RUnlock()
	}
	scan.SetAttr("postings_scanned", scanned)
	scan.SetAttr("candidates", int64(len(sc.touched)))
	f.accumulateRunsLocked(sc, m, sp)
	if m != nil {
		m.lookupCandidates.Add(int64(len(sc.touched)))
	}
	return sc
}

// Pair is one result of a similarity join: two indexed trees and their
// pq-gram distance, with A < B lexicographically.
type Pair struct {
	A, B     string
	Distance float64
}

func sortPairs(ps []Pair) {
	slices.SortFunc(ps, func(x, y Pair) int {
		if c := cmp.Compare(x.Distance, y.Distance); c != 0 {
			return c
		}
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		return cmp.Compare(x.B, y.B)
	})
}

// Distance returns the pq-gram distance between two indexed trees.
func (f *Index) Distance(id1, id2 string) (float64, error) {
	m := f.obs.Load()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
		defer func() {
			m.distOps.Inc()
			m.distNS.ObserveSince(t0)
		}()
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	a, ok := f.trees[id1]
	if !ok {
		return 0, fmt.Errorf("forest: tree %q not indexed", id1)
	}
	b, ok := f.trees[id2]
	if !ok {
		return 0, fmt.Errorf("forest: tree %q not indexed", id2)
	}
	if id1 == id2 {
		return 0, nil
	}
	// Both bag locks are needed; take them in ID order (the global
	// multi-entry order) so concurrent distance queries cannot deadlock.
	if id2 < id1 {
		a, b = b, a
		id1, id2 = id2, id1
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	//pqlint:allow lockorder — two bag locks of one class, always in ascending tree-ID order (the global multi-entry order), so concurrent Distance calls cannot deadlock
	b.mu.RLock()
	defer b.mu.RUnlock()
	abag, err := f.bagOfLocked(id1, a)
	if err != nil {
		return 0, err
	}
	bbag, err := f.bagOfLocked(id2, b)
	if err != nil {
		return 0, err
	}
	return abag.Distance(bbag), nil
}

// distanceFrom is the shared scoring expression; it delegates to
// profile.DistanceFrom so the planner's pruning bounds provably evaluate
// the exact formula the scoring path does.
func distanceFrom(qSize, tSize, overlap int) float64 {
	return profile.DistanceFrom(qSize, tSize, overlap)
}

func sortMatches(ms []Match) {
	slices.SortFunc(ms, func(x, y Match) int {
		if c := cmp.Compare(x.Distance, y.Distance); c != 0 {
			return c
		}
		return cmp.Compare(x.TreeID, y.TreeID)
	})
}

// worseMatch reports whether a ranks strictly after b in the top-k order
// (greater distance, ties by greater id). It is the exact complement of
// the sortMatches order, so the heap and the final sort agree on every
// tie.
func worseMatch(a, b Match) bool {
	if a.Distance != b.Distance {
		return a.Distance > b.Distance
	}
	return a.TreeID > b.TreeID
}

// topHeap is a bounded max-heap of the best k matches offered so far,
// the worst of them at the root.
type topHeap struct {
	k  int
	ms []Match
}

// offer considers one scored document for the top-k set.
func (h *topHeap) offer(m Match) {
	if len(h.ms) < h.k {
		h.ms = append(h.ms, m)
		for i := len(h.ms) - 1; i > 0; {
			p := (i - 1) / 2
			if !worseMatch(h.ms[i], h.ms[p]) {
				break
			}
			h.ms[i], h.ms[p] = h.ms[p], h.ms[i]
			i = p
		}
		return
	}
	if !worseMatch(h.ms[0], m) {
		return
	}
	h.ms[0] = m
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < len(h.ms) && worseMatch(h.ms[l], h.ms[w]) {
			w = l
		}
		if r < len(h.ms) && worseMatch(h.ms[r], h.ms[w]) {
			w = r
		}
		if w == i {
			return
		}
		h.ms[i], h.ms[w] = h.ms[w], h.ms[i]
		i = w
	}
}

// full reports whether the heap holds k matches; its root is only a
// pruning bound once it does.
func (h *topHeap) full() bool { return len(h.ms) == h.k }
