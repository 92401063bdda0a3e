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
// change costs time proportional to the log, not to the forest. Each
// per-tree bag is a frozen sorted profile.Bag plus a small overlay of the
// tuples changed since it was frozen (treeEntry), so a resident document
// costs 12 bytes per distinct tuple instead of a Go map's 30 while an
// update still touches only its deltas.
//
// The in-memory postings need not hold the whole collection: a storage
// tier (tier.go, implemented by the segmented store in internal/store)
// can serve evicted documents' bags and postings from immutable on-disk
// segments. Every lookup and join path merges the two populations and
// returns results byte-identical to the all-in-RAM index; see tier.go
// for the resident-XOR-evicted invariant this rests on.
//
// # Concurrency
//
// The index is safe for concurrent use as the shared artifact the paper
// targets: many clients looking up while edit feeds stream in. The inverted
// postings are lock-striped into shards keyed by label-tuple hash, each
// per-tree bag is guarded by its own RWMutex, and a registry RWMutex guards
// the tree table. Lookups read only the postings and the cached bag sizes,
// so they never take a bag lock. Lookups, joins and incremental updates of
// different documents all proceed in parallel; only the structural
// operations (Add, AddIndex, AddIndexes, AddAll, AddEvicted, Remove,
// RemoveSwap, Put, Evict, Promote), SetTier and SelfCheck take the
// registry write lock and briefly exclude everything else.
//
// Concurrent Update/ApplyDeltas calls against the same document serialize
// on the document's lock and keep the index internally consistent, but the
// logs must still form one coherent edit sequence — interleaving
// independently derived logs for the same document is a logic error, with
// or without locking, exactly as in single-threaded use.
//
// Lock ordering is registry → tree entry → postings shard; shard locks are
// never held while acquiring an entry lock, and no operation holds two
// locks of one class. The storage tier's own lock nests after all of them:
// tier reads run under the registry lock and never call back into the
// forest. The lock of the epoch's change records is a leaf.
package forest

import (
	"cmp"
	"errors"
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
// every list reachable from it against delta applications; structural
// operations write them under the registry write lock alone, which is the
// Index.mu:w alternative of the guard.
type shard struct {
	mu sync.RWMutex
	// postings is written under mu or under Index.mu:w, so a reader holds
	// Index.mu (read suffices) as well as mu.
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

// drop removes from lt's list every posting whose doc number is set in
// the bitset gone, if the list still holds doc; the list is rewritten in
// place, once. Same locking contract as add.
//
//pqlint:locked s.mu
func (s *shard) drop(lt profile.LabelTuple, doc uint32, gone []uint64) {
	list := s.postings[lt]
	if _, found := searchDoc(list, doc); !found {
		return
	}
	list = slices.DeleteFunc(list, func(p posting) bool { return gone[p.doc/64]&(1<<(p.doc%64)) != 0 })
	if len(list) == 0 {
		delete(s.postings, lt)
	} else {
		s.postings[lt] = list
	}
}

// foldFraction bounds a bag's overlay: once it holds more than
// 1/foldFraction as many tuples as the frozen base, ApplyDeltas folds it
// into a new base. A fold costs O(base + overlay) and follows at least
// base/foldFraction overlay changes, each paid for by a delta tuple, so an
// update costs amortised O(|I⁺| + |I⁻|) while the overlay adds at most an
// eighth of a map's footprint to the 12 bytes per tuple of the base.
const foldFraction = 8

// treeEntry is one indexed tree: its bag, the bag's lock, and the bag
// cardinality cached so that lookups can score candidates without taking
// the bag lock at all.
//
// The bag is base plus over: base is frozen (a sorted profile.Bag), and
// over holds the absolute count of each tuple changed since base was
// frozen, 0 for a tuple removed. over is nil when no tuple has changed;
// ApplyDeltas writes only over and folds it into a new base (one
// Bag.With merge) once it outgrows base/foldFraction.
//
// evicted marks an entry whose bag lives in the storage tier (tier.go):
// base and over are empty, the postings are absent from the shards, and
// distinct caches the bag's distinct-tuple count (written only under the
// registry write lock, like evicted itself).
//
// id and doc are the entry's two names — the caller's string and the dense
// number the postings and the per-query accumulators use — fixed when the
// entry is registered.
type treeEntry struct {
	mu       sync.RWMutex
	base     profile.Bag                // guarded by mu or Index.mu:w
	over     map[profile.LabelTuple]int // guarded by mu or Index.mu:w
	evicted  bool                       // guarded by Index.mu
	size     atomic.Int64
	distinct int    // guarded by Index.mu
	id       string // guarded by Index.mu
	doc      uint32 // guarded by Index.mu
}

// count returns the multiplicity of lt in the entry's bag.
//
//pqlint:locked e.mu:r
func (e *treeEntry) count(lt profile.LabelTuple) int {
	if c, ok := e.over[lt]; ok {
		return c
	}
	return e.base.Count(lt)
}

// bag returns the entry's bag with the overlay merged in: base itself
// when there is no overlay, else a new Bag.
//
//pqlint:locked e.mu:r
func (e *treeEntry) bag() profile.Bag {
	if e.over == nil {
		return e.base
	}
	return e.base.With(e.over)
}

// distinctCount returns the number of distinct tuples of the entry's bag
// without merging the overlay: the base's, corrected by each overlay
// tuple that enters or leaves the bag.
//
//pqlint:locked e.mu:r
func (e *treeEntry) distinctCount() int {
	n := e.base.Distinct()
	for lt, c := range e.over {
		switch b := e.base.Count(lt); {
		case b == 0 && c > 0:
			n++
		case b > 0 && c == 0:
			n--
		}
	}
	return n
}

// ErrNotIndexed is wrapped by every error that names a tree ID the index
// (or the store persisting it) does not hold, so that a caller can tell
// "no such document" from a failure.
var ErrNotIndexed = errors.New("not indexed")

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

	// obs is the attached instrumentation: handles resolved from the
	// attached collector, or nil no-op handles when none is (the
	// default). It is never nil. Hot paths load it once at entry; see
	// metrics.go.
	obs atomic.Pointer[metrics]

	// epoch is the mutation epoch of the index: a counter advanced by
	// every operation that can change lookup results (Add, Remove, Put,
	// bulk builds, incremental delta application). Result caches key
	// their entries on it — see Epoch for the exact protocol. Structural
	// ops under the registry write lock advance it once per document they
	// add or drop; delta applications, which run concurrently with
	// lookups, advance it both before the first change and after the last
	// one (seqlock-style), so an epoch observed unchanged across a read
	// brackets a window with no completed mutation.
	epoch atomic.Uint64

	// changed names the document behind each of the last changeRing epoch
	// advances: changed[e%changeRing] is the one that moved the epoch to
	// e. Each advance (advance) bumps epoch and writes its record under
	// changedMu, so a reader that loaded e from Epoch and then takes
	// changedMu finds every record up to e (Changed).
	changedMu sync.Mutex
	changed   [changeRing]string // guarded by changedMu

	// tier is the storage tier serving evicted documents (tier.go), nil
	// when every document is resident. Attached once at open time by the
	// segmented store.
	tier Tier // guarded by mu
}

// The package's lock-acquisition order, enforced by the lockorder
// analyzer. The registry lock is always outermost, per-document bag
// locks nest inside it, and postings stripes inside those. The epoch
// record's lock is a leaf, taken under the registry or a bag lock and
// never with a stripe held. No code holds two locks of one class, so the
// analyzer's same-class rule needs no exception here.
//
//pqlint:lockorder Index.mu < treeEntry.mu < shard.mu
//pqlint:lockorder treeEntry.mu < Index.changedMu

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
	f.SetCollector(nil)
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
// observes e1 proves no mutation completed in between. Changed names the
// documents whose changes moved the epoch.
func (f *Index) Epoch() uint64 { return f.epoch.Load() }

// changeRing is the number of epoch advances whose documents the index
// keeps. An update and a replacing Put each advance the epoch twice, so
// the records span at least the last 1 024 writes.
const changeRing = 2048

// advance moves the epoch on by one for a change to document id and
// records id as the document behind the new epoch.
func (f *Index) advance(id string) {
	f.changedMu.Lock()
	f.changed[f.epoch.Add(1)%changeRing] = id
	f.changedMu.Unlock()
}

// Changed returns the documents whose changes advanced the epoch in
// (e0, e1], sorted and distinct, where e1 is an epoch the caller read from
// Epoch. It reports false once the index no longer holds the record of
// every advance in that range: it keeps those of the latest changeRing.
// A write in progress at e1 is named once it has advanced the epoch.
func (f *Index) Changed(e0, e1 uint64) ([]string, bool) {
	if e1 <= e0 {
		return nil, true
	}
	ids := make([]string, 0, min(e1-e0, changeRing))
	f.changedMu.Lock()
	if now := f.epoch.Load(); e1 > now || now-e0 > changeRing {
		f.changedMu.Unlock()
		return nil, false
	}
	for e := e0 + 1; e <= e1; e++ {
		ids = append(ids, f.changed[e%changeRing])
	}
	f.changedMu.Unlock()
	slices.Sort(ids)
	return slices.Compact(ids), true
}

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
	return f.AddIndex(id, profile.Freeze(profile.BuildIndex(t, f.pr)))
}

// AddIndex indexes a precomputed frozen bag (e.g. one loaded from disk)
// under the given ID. A Bag is immutable, so the forest keeps it as it is.
func (f *Index) AddIndex(id string, bag profile.Bag) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.addBagLocked(id, bag)
}

// addBagLocked requires f.mu held for writing; under the write lock the
// shards need no locking of their own.
//
//pqlint:locked f.mu
func (f *Index) addBagLocked(id string, bag profile.Bag) error {
	if _, ok := f.trees[id]; ok {
		return fmt.Errorf("forest: tree %q already indexed", id)
	}
	e := f.registerLocked(id, bag, bag.Size())
	for i := 0; i < bag.Distinct(); i++ {
		lt, c := bag.At(i)
		f.shardOf(lt).add(lt, e.doc, c)
	}
	f.advance(id)
	f.obs.Load().adds.Inc()
	return nil
}

// registerLocked enters a new tree into the registry under a free doc
// number. The most recently freed number goes first, so a Put that
// replaces a tree hands the new bag the old one's number.
//
//pqlint:locked f.mu
func (f *Index) registerLocked(id string, bag profile.Bag, size int) *treeEntry {
	e := &treeEntry{base: bag, id: id}
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
		return fmt.Errorf("forest: tree %q %w", id, ErrNotIndexed)
	}
	bag := e.bag()
	for i := 0; i < bag.Distinct(); i++ {
		lt, c := bag.At(i)
		f.shardOf(lt).sub(lt, e.doc, c)
	}
	delete(f.trees, id)
	f.docs[e.doc] = nil
	f.free = append(f.free, e.doc)
	f.advance(id)
	f.obs.Load().removes.Inc()
	return nil
}

// Put indexes t under id, atomically replacing any existing tree with that
// ID, and returns the bag cardinality of the new index. It is the upsert
// the serving path needs: with separate Has/Remove/Add calls two writers
// can interleave, with Put they cannot.
func (f *Index) Put(id string, t *tree.Tree) int {
	bag := profile.Freeze(profile.BuildIndex(t, f.pr))
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.trees[id]; ok {
		f.removeLocked(id)
	}
	f.addBagLocked(id, bag)
	f.obs.Load().puts.Inc()
	return bag.Size()
}

// TreeIndex returns a copy of the pq-gram index of one tree, or nil if the
// ID is unknown. The copy is the caller's: mutating it cannot corrupt the
// forest. Callers that only read the bag should use Bag, which does not
// copy; callers that only need the cardinalities, TreeStats.
func (f *Index) TreeIndex(id string) profile.Index {
	bag, ok := f.Bag(id)
	if !ok {
		return nil
	}
	f.obs.Load().bagCopyTuples.Add(int64(bag.Distinct()))
	return bag.Index()
}

// Bag returns the frozen bag of one tree with its overlay merged in, or
// false if the ID is unknown: a resident tree's own base when it has no
// overlay, else a merged copy, and an evicted tree's bag from the storage
// tier. A Bag is immutable, so the result is safe to share and to keep.
func (f *Index) Bag(id string) (profile.Bag, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	e := f.trees[id]
	if e == nil {
		return profile.Bag{}, false
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	bag, err := f.bagOfLocked(id, e)
	return bag, err == nil
}

// bagCopyLocked returns a copy of one entry's bag that the caller owns,
// materialised as an Index: from a resident bag, taken under its lock, or
// from the tier's copy of an evicted one. It requires f.mu held (read
// suffices), which keeps the document from being promoted or re-flushed
// mid-read, and fails only on a tier inconsistency (see bagOfLocked).
//
//pqlint:locked f.mu:r
func (f *Index) bagCopyLocked(id string, e *treeEntry) (profile.Index, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	bag, err := f.bagOfLocked(id, e)
	if err != nil {
		return nil, err
	}
	f.obs.Load().bagCopyTuples.Add(int64(bag.Distinct()))
	return bag.Index(), nil
}

// TreeStats returns the bag cardinality and the number of distinct tuples
// of one tree's index without copying or merging the bag.
func (f *Index) TreeStats(id string) (size, distinct int, ok bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	e := f.trees[id]
	if e == nil {
		return 0, 0, false
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.evicted {
		return int(e.size.Load()), e.distinct, true
	}
	return int(e.size.Load()), e.distinctCount(), true
}

// ForEachTree calls fn once per indexed tree in ascending ID order, passing
// its frozen bag: the internal one of a resident tree whose overlay is
// empty, a merged one otherwise, or a tier-fetched copy for an evicted
// tree. The bag's lock is held for the duration of the call. Iteration
// stops at the first error, which is returned. This is the traversal the
// store uses to serialize the forest in the bags' own sorted order.
func (f *Index) ForEachTree(fn func(id string, bag profile.Bag) error) error {
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
	iPlus, iMinus, st, err := core.Deltas(tn, log, f.pr)
	if err != nil {
		return st, err
	}
	return st, f.ApplyDeltas(id, iPlus, iMinus, nil)
}

// ApplyDeltas applies precomputed index deltas (I⁺, I⁻ from core.Deltas)
// to one tree's bag and the postings, in three steps: check, commit,
// apply. It checks I⁻ ⊆ bag (core.CheckMinus), then runs commit, and only
// then advances the epoch and changes the bag, its size and the postings.
// A failed check or a commit error is returned with nothing applied and
// the epoch untouched; commit runs once, and only if the check passed.
//
// commit is how a caller makes the update durable before it becomes
// visible: the segmented store passes its journal append, and replay,
// which applies what the journal already holds, passes nil (nothing to
// commit), as does Update. It runs under the registry read lock and the
// document's entry lock, so lookups and other documents' updates proceed
// and every reader still sees the pre-update state. commit must not call
// into the forest: a mutator would deadlock on the locks it holds.
// Holding the registry read lock across a journal fsync queues no forest
// writer: a store-backed forest changes structure only through the
// store's mutators, which the store's package contract serializes with
// its Update, so no writer is waiting while the commit runs.
func (f *Index) ApplyDeltas(id string, iPlus, iMinus profile.Index, commit func() error) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	e, ok := f.trees[id]
	if !ok {
		return fmt.Errorf("forest: tree %q %w", id, ErrNotIndexed)
	}
	// The entry lock is held across the check, the commit, and both the
	// bag and the postings phase, so that updates to the same document
	// serialize as a whole and never observe each other half-applied.
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.evicted {
		// Deltas mutate the resident bag and the in-memory postings; the
		// segmented store promotes a flushed document before updating it.
		return fmt.Errorf("forest: tree %q is evicted; promote it before applying deltas", id)
	}
	if err := core.CheckMinus(e.count, iMinus); err != nil {
		return fmt.Errorf("forest: tree %q: %w", id, err)
	}
	if commit != nil {
		if err := commit(); err != nil {
			return err
		}
	}
	m := f.obs.Load()
	t0 := time.Now()
	// Delta application runs under the registry *read* lock, concurrent
	// with lookups, so the epoch is advanced on both sides of the change
	// (seqlock-style): a lookup that observes the same epoch before and
	// after its traversal is guaranteed not to have raced a completed
	// mutation. The exit bump happens even on error: a postings underflow
	// (a corrupt index) may leave a partial change, and a spurious cache
	// invalidation is always safe.
	f.advance(id)
	defer f.advance(id)
	// The bag changes in the overlay alone: I₀ ∖ I⁻ ⊎ I⁺ as absolute
	// counts of the tuples the deltas name.
	if e.over == nil && len(iPlus)+len(iMinus) > 0 {
		e.over = make(map[profile.LabelTuple]int, len(iPlus)+len(iMinus))
	}
	for lt, c := range iMinus {
		e.over[lt] = e.count(lt) - c
	}
	for lt, c := range iPlus {
		e.over[lt] = e.count(lt) + c
	}
	if len(e.over) > e.base.Distinct()/foldFraction {
		e.base, e.over = e.bag(), nil
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
	m.updates.Inc()
	m.updateGramsPlus.Add(int64(iPlus.Size()))
	m.updateGramsMinus.Add(int64(iMinus.Size()))
	m.updateNS.ObserveSince(t0)
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
		bag, err := f.bagOfLocked(id, e)
		if err != nil {
			return err
		}
		if e.evicted {
			if got := e.size.Load(); got != int64(bag.Size()) {
				return fmt.Errorf("forest: cached size of evicted tree %q is %d, tier bag has %d", id, got, bag.Size())
			}
			if e.distinct != bag.Distinct() {
				return fmt.Errorf("forest: cached distinct of evicted tree %q is %d, tier bag has %d", id, e.distinct, bag.Distinct())
			}
			continue
		}
		if got, n := e.size.Load(), bag.Size(); got != int64(n) {
			return fmt.Errorf("forest: cached size of tree %q is %d, want %d", id, got, n)
		}
		resident += bag.Distinct()
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
				if e.evicted {
					return fmt.Errorf("forest: evicted tree %q has a posting", e.id)
				}
				if want := e.count(lt); p.cnt == 0 || int(p.cnt) != want {
					return fmt.Errorf("forest: posting count for tree %q is %d, want %d", e.id, p.cnt, want)
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

// LookupIndex is Lookup for a precomputed query index. The resident
// documents are read by one overlap accumulation and the storage tier
// run by run under the threshold bounds (planner.go). τ ≤ 0 matches
// nothing and reads nothing.
func (f *Index) LookupIndex(q profile.Index, tau float64) []Match {
	m := f.obs.Load()
	sp := m.col.StartTrace("forest.lookup")
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
	t0 := time.Now()
	qSize := q.Size()
	f.mu.RLock()
	defer f.mu.RUnlock()
	sp.SetAttr("q_size", int64(qSize))
	sp.SetAttr("trees", int64(len(f.trees)))
	out, plan := f.lookupLocked(q, qSize, tau, m, sp)
	sp.SetAttr("plan", int64(planCode(plan)))
	sp.SetAttr("matches", int64(len(out)))
	m.lookups.Inc()
	m.lookupMatches.Add(int64(len(out)))
	m.lookupNS.ObserveSince(t0)
	return out, plan
}

// lookupLocked answers one threshold lookup of a query bag of size qSize
// and names the plan. Resident documents are read by the one accumulation
// pass (accumulateLocked) and scored inside the size window; the storage
// tier, if any, is planned run by run under the same bounds
// (lookupRunsLocked). The span is nil-safe; the similarity join passes
// a nil span and detached metrics. It requires f.mu held (read
// suffices).
//
//pqlint:locked f.mu:r
func (f *Index) lookupLocked(q profile.Index, qSize int, tau float64, m *metrics, sp *obs.Span) ([]Match, string) {
	if tau <= 0 {
		// Lookups are strict, d < τ, and no distance is negative.
		return nil, planExhaustive
	}
	scan := sp.Child("scan")
	defer scan.Finish()
	if tau > 1 || qSize == 0 {
		// Every tree is scored: at τ > 1 trees sharing no pq-gram
		// (distance exactly 1) qualify too, and an empty query is at
		// distance 0 from every empty bag. Neither has a posting.
		sc := f.overlapsLocked(q, m, sp, scan)
		defer sc.release()
		var out []Match
		for doc, e := range f.docs {
			if e == nil {
				continue
			}
			if d := distanceFrom(qSize, int(e.size.Load()), int(sc.acc[doc])); d < tau {
				out = append(out, Match{TreeID: e.id, Distance: d})
			}
		}
		SortMatches(out)
		return out, planScanAll
	}
	b := newBounds(qSize, tau)
	sc := f.accumulateLocked(q, scan)
	defer sc.release()
	out := f.scoreLocked(nil, sc, sc.touched, &b, m, scan)
	if f.tier != nil {
		out = f.lookupRunsLocked(out, sc, &b, m, sp)
	}
	SortMatches(out)
	return out, planPruned
}

// accumulateLocked is the resident kernel of every lookup: one pass over
// the query's posting lists, each stripe locked once, adding each
// posting's share of the overlap onto its doc and noting each list's
// length for the tier's run order. It returns a pooled scratch the caller
// must release: sc.acc[doc] is the overlap and sc.touched lists the docs
// sharing at least one tuple with the query. The scan span (nil-safe)
// receives the postings read. It requires f.mu held (read suffices).
//
//pqlint:locked f.mu:r
func (f *Index) accumulateLocked(q profile.Index, scan *obs.Span) *lookupScratch {
	sc := f.scratchLocked(q)
	acc, touched := sc.acc, sc.touched // locals the inner loop keeps in registers
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
			t.listLen = len(list)
			scanned += int64(len(list))
			qc := uint32(t.qc)
			for _, p := range list {
				if acc[p.doc] == 0 {
					touched = append(touched, p.doc)
				}
				acc[p.doc] += min(p.cnt, qc)
			}
		}
		s.mu.RUnlock()
	}
	sc.touched = touched
	scan.SetAttr("postings_scanned", scanned)
	return sc
}

// overlapsLocked accumulates |I(query) ∩ I(T)| per tree — the resident
// ones via accumulateLocked, the evicted ones via the storage tier's runs
// — for the two readers that score every tree it touches, the τ > 1 scan
// and top-k. The scan span (nil-safe) counts the resident docs touched as
// its candidates, the tier read its own child of sp. It requires f.mu
// held (read suffices).
//
//pqlint:locked f.mu:r
func (f *Index) overlapsLocked(q profile.Index, m *metrics, sp, scan *obs.Span) *lookupScratch {
	sc := f.accumulateLocked(q, scan)
	resident := len(sc.touched)
	scan.SetAttr("candidates", int64(resident))
	if f.tier != nil {
		w := f.accumulateRunsLocked(sc, sp)
		w.span.SetAttr("candidates", int64(len(sc.touched)-resident))
		w.record(m)
	}
	m.lookupCandidates.Add(int64(len(sc.touched)))
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

// distanceFrom is the shared scoring expression; it delegates to
// profile.DistanceFrom so the planner's pruning bounds provably evaluate
// the exact formula the scoring path does.
func distanceFrom(qSize, tSize, overlap int) float64 {
	return profile.DistanceFrom(qSize, tSize, overlap)
}

// SortMatches puts ms in the order every lookup answers in: ascending
// distance, ties by ascending id. A caller that edits an answer re-sorts
// it with this so the result stays identical to a fresh lookup's.
func SortMatches(ms []Match) {
	slices.SortFunc(ms, func(x, y Match) int {
		if c := cmp.Compare(x.Distance, y.Distance); c != 0 {
			return c
		}
		return cmp.Compare(x.TreeID, y.TreeID)
	})
}

// worseMatch reports whether a ranks strictly after b in the top-k order
// (greater distance, ties by greater id). It is the exact complement of
// the SortMatches order, so the heap and the final sort agree on every
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
