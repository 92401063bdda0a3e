// The storage tier hook of the forest: out-of-core document bags.
//
// A segmented store (internal/store, segstore.go) keeps only recently
// mutated documents resident in the forest's in-memory postings; the rest
// live in immutable on-disk segments. The forest stays the single query
// engine for both populations through the Tier interface: every document
// is represented by a treeEntry in the registry (so Has/Len/IDs and the
// cached sizes behave identically), but an evicted entry holds no bag and
// its postings are absent from the shards — lookups merge the tier's
// overlap contributions instead.
//
// The invariant everything below leans on: a document is resident XOR
// evicted. Its tuples are in the in-memory shards or reachable through
// the tier, never both, so the tier's postings land in the same per-doc
// accumulators by plain addition and the merged result is byte-identical
// to the all-in-RAM index (the differential tests in internal/store hold
// the whole stack to that). An entry keeps its doc number across the
// swap, so only its postings move.
//
// The tier is a set of runs (Run): immutable posting sources over
// disjoint documents that name them by doc number, so lookups read a run
// like the shards — no ID strings, no per-lookup map — and the pruned path
// plans each one as a small forest of its own (planner.go).
//
// Eviction and promotion swap a document between the populations without
// changing its content, so they advance no epoch. Both — like the removal
// of a document the tier may hold — run under the registry write lock
// together with the store's own bookkeeping (the swap callback), which
// makes the tier handoff atomic with respect to every lookup: no lookup
// can observe a document in both tiers or in neither, or a run naming a
// freed number.
package forest

import (
	"fmt"
	"math"

	"pqgram/internal/obs"
	"pqgram/internal/profile"
)

// NoDoc in a run's doc table marks a copy that serves no live document:
// shadowed by a newer run, deleted, or promoted back into the shards.
const NoDoc = ^uint32(0)

// RunPosting is one entry of a run's posting list: a reference into the
// run's doc table and the tuple's multiplicity in that document's bag.
type RunPosting struct {
	Ref int32
	Cnt uint32
}

// Run is one immutable posting source of the tier — a segment of the
// segmented store. Runs hold disjoint live documents.
type Run interface {
	// Docs maps the run's refs to doc numbers, NoDoc for dead copies. The
	// tier changes it only inside the swap callbacks of Evict, Promote and
	// RemoveSwap, so the forest reads it under its registry read lock.
	Docs() []uint32

	// MayContain reports whether the run may hold the tuple Tier.FilterHash
	// hashed to (h1, h2): false is exact, true may be wrong.
	MayContain(h1, h2 uint64) bool

	// Postings returns the tuple's read-only posting list in ascending Ref
	// order, nil if the run does not hold the tuple.
	Postings(lt profile.LabelTuple) []RunPosting
}

// Tier is the storage tier serving evicted documents' bags and postings.
// Implementations are read-side only and must be safe for concurrent
// use; the forest calls them while holding its registry lock (read or
// write), so implementations must not call back into the forest.
//
// Tier methods return no errors: the tier reads immutable, checksummed
// segment files that were verified at open, so a read failing afterwards
// means the storage itself is unrecoverable mid-query — implementations
// panic rather than fabricate an answer (see segstore.go).
type Tier interface {
	// AppendRuns appends the live runs to dst. The set of runs changes
	// only inside Evict's swap callback.
	AppendRuns(dst []Run) []Run

	// FilterHash hashes a tuple for every run's MayContain.
	FilterHash(lt profile.LabelTuple) (h1, h2 uint64)

	// Bag returns one evicted document's bag, or ok=false if the tier
	// does not hold the document.
	Bag(id string) (bag profile.Bag, ok bool)
}

// SetTier attaches (or, with nil, detaches) the storage tier. The
// segmented store attaches itself at open time, before any lookups run.
func (f *Index) SetTier(t Tier) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tier = t
}

// Evict moves documents from the resident population to the tier: their
// postings leave the in-memory shards and their bags are dropped, keeping
// only the cached size and distinct-tuple count. swap (if non-nil) runs
// under the registry write lock after the removal, with the doc numbers of
// ids in order — the store uses it to publish the run that now serves
// these documents, so the handoff is atomic with respect to lookups. The
// caller must have made the documents durable in the tier first.
//
// Evicting changes no document's content, so the epoch does not advance
// and cached lookup results stay valid — by the time Evict runs, the tier
// answers exactly what the shards answered.
func (f *Index) Evict(ids []string, swap func(docs []uint32)) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, id := range ids {
		e, ok := f.trees[id]
		if !ok {
			return fmt.Errorf("forest: tree %q %w", id, ErrNotIndexed)
		}
		if e.evicted {
			return fmt.Errorf("forest: tree %q already evicted", id)
		}
	}
	// Each posting list an evicted document touches is rewritten once,
	// filtered against the set of evicted doc numbers: a later document's
	// tuple whose list no longer holds it was filtered already.
	docs := make([]uint32, len(ids))
	gone := make([]uint64, (len(f.docs)+63)/64)
	for i, id := range ids {
		docs[i] = f.trees[id].doc
		gone[docs[i]/64] |= 1 << (docs[i] % 64)
	}
	for _, id := range ids {
		e := f.trees[id]
		bag := e.bag()
		for j := 0; j < bag.Distinct(); j++ {
			lt, _ := bag.At(j)
			f.shardOf(lt).drop(lt, e.doc, gone)
		}
		e.distinct = bag.Distinct()
		e.base, e.over, e.evicted = profile.Bag{}, nil, true
	}
	if swap != nil {
		swap(docs)
	}
	return nil
}

// Promote moves one evicted document back into the resident population
// with the given bag — the store calls it before applying incremental
// deltas to a flushed document. swap runs under the registry write lock
// after the postings are re-added; the store uses it to drop its tier
// location and mark the stale segment copy dead, so no lookup can count
// the document twice. Like Evict, promotion changes no content: no epoch
// advance.
func (f *Index) Promote(id string, bag profile.Bag, swap func()) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.trees[id]
	if !ok {
		return fmt.Errorf("forest: tree %q %w", id, ErrNotIndexed)
	}
	if !e.evicted {
		return fmt.Errorf("forest: tree %q already resident", id)
	}
	e.base, e.evicted = bag, false
	e.size.Store(int64(bag.Size()))
	e.distinct = 0
	for i := 0; i < bag.Distinct(); i++ {
		lt, c := bag.At(i)
		f.shardOf(lt).add(lt, e.doc, c)
	}
	if swap != nil {
		swap()
	}
	return nil
}

// RemoveSwap is Remove for a store whose tier may hold the document: swap
// (if non-nil) runs under the registry write lock right after the entry —
// and with it the doc number, which the next registration reuses — is
// freed, so the store marks its copy dead before any lookup can find the
// number in a run again.
func (f *Index) RemoveSwap(id string, swap func()) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	err := f.removeLocked(id)
	if err == nil && swap != nil {
		swap()
	}
	return err
}

// AddEvicted registers a document that already lives in the tier, storing
// only its cached size and distinct-tuple count, and returns its doc
// number for the run's doc table — the segmented store's open path uses it
// to rebuild the registry without reading any bag.
func (f *Index) AddEvicted(id string, size, distinct int) (uint32, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.trees[id]; ok {
		return 0, fmt.Errorf("forest: tree %q already indexed", id)
	}
	e := f.registerLocked(id, profile.Bag{}, size)
	e.evicted, e.distinct = true, distinct
	f.advance(id)
	f.obs.Load().adds.Inc()
	return e.doc, nil
}

// bagOfLocked returns the bag of one entry: a resident one with its
// overlay merged in, an evicted one fetched from the tier. Requires f.mu
// held (read suffices) and, for resident entries, e.mu or f.mu for
// writing. It fails only on a tier inconsistency: an evicted entry the
// tier does not serve.
//
//pqlint:locked f.mu:r
func (f *Index) bagOfLocked(id string, e *treeEntry) (profile.Bag, error) {
	if !e.evicted {
		return e.bag(), nil
	}
	if f.tier == nil {
		return profile.Bag{}, fmt.Errorf("forest: tree %q is evicted and no tier is attached", id)
	}
	bag, ok := f.tier.Bag(id)
	if !ok {
		return profile.Bag{}, fmt.Errorf("forest: tree %q is evicted but the tier does not hold it", id)
	}
	return bag, nil
}

// tierWork is the work one lookup's tier read performed, for its "tier"
// span and the forest_bloom_* / forest_tier_* counters. The candidate
// accounting goes on the span beside it, set by the caller.
type tierWork struct {
	span     *obs.Span // nil when the lookup is not traced
	probed   int64     // runs with at least one posting list fetched
	checks   int64     // (run, tuple) filter tests
	skips    int64     // filter tests that rejected the tuple
	scanned  int64     // posting entries read
	pruned   int64     // runs abandoned on the filter mass bound, unread
	finished int64     // runs whose survivors needed the finish pass
}

// record closes the tier span with the work as attributes and adds it to
// the counters.
func (w *tierWork) record(m *metrics) {
	w.span.SetAttr("segments_probed", w.probed)
	w.span.SetAttr("bloom_checks", w.checks)
	w.span.SetAttr("bloom_skips", w.skips)
	w.span.SetAttr("postings_scanned", w.scanned)
	w.span.SetAttr("runs_pruned", w.pruned)
	w.span.SetAttr("runs_finished", w.finished)
	w.span.Finish()
	m.bloomChecks.Add(w.checks)
	m.bloomSkips.Add(w.skips)
	m.tierSegmentsProbed.Add(w.probed)
	m.tierPostingsScanned.Add(w.scanned)
}

// admitRunsLocked starts a lookup's tier read under a "tier" child of sp:
// it collects the runs in sc.runs and asks every run's filter about every
// query tuple, hashing each tuple once. Afterwards sc.admits says which
// runs may hold a tuple, its runs field counts them, and sc.rej[r] is the
// query mass run r provably lacks; once that exceeds slack no document of
// the run can reach the overlap the caller needs and the run is not asked
// again. With no runs it hashes nothing. The caller records the returned
// work. Requires a tier and f.mu held (read suffices).
//
//pqlint:locked f.mu:r
func (f *Index) admitRunsLocked(sc *lookupScratch, slack int, sp *obs.Span) tierWork {
	w := tierWork{span: sp.Child("tier")}
	sc.runs = f.tier.AppendRuns(sc.runs)
	if len(sc.runs) == 0 {
		return w
	}
	sc.words = (len(sc.runs) + 63) / 64
	sc.admit = resized(sc.admit, len(sc.tuples)*sc.words)
	sc.rej = resized(sc.rej, len(sc.runs))
	for i := range sc.tuples {
		t := &sc.tuples[i]
		t.row = int32(i)
		h1, h2 := f.tier.FilterHash(t.lt)
		for r, run := range sc.runs {
			if sc.rej[r] > slack {
				continue
			}
			w.checks++
			if run.MayContain(h1, h2) {
				sc.admit[i*sc.words+r>>6] |= 1 << (r & 63)
				t.runs++
			} else {
				w.skips++
				sc.rej[r] += t.qc
			}
		}
	}
	return w
}

// accumulateRunsLocked is the tier half of every accumulation: every
// admitted posting list of every run lands in sc.acc, dead copies skipped,
// so the tier's documents follow the resident ones in sc.touched. The
// caller records the returned work. Requires a tier and f.mu held (read
// suffices).
//
//pqlint:locked f.mu:r
func (f *Index) accumulateRunsLocked(sc *lookupScratch, sp *obs.Span) tierWork {
	w := f.admitRunsLocked(sc, math.MaxInt, sp)
	for r, run := range sc.runs {
		docs := run.Docs()
		scanned := w.scanned
		for i := range sc.tuples {
			t := &sc.tuples[i]
			if !sc.admits(t, r) {
				continue
			}
			list := run.Postings(t.lt)
			w.scanned += int64(len(list))
			for _, p := range list {
				if doc := docs[p.Ref]; doc != NoDoc {
					sc.add(doc, min(p.Cnt, uint32(t.qc)))
				}
			}
		}
		if w.scanned > scanned {
			w.probed++
		}
	}
	return w
}
