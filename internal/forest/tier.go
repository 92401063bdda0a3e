// The storage tier hook of the forest: out-of-core document bags.
//
// A segmented store (internal/store, segstore.go) keeps only recently
// mutated documents resident in the forest's in-memory postings; the rest
// live in immutable on-disk segments. The forest stays the single query
// engine for both populations through the Tier interface: every document
// is represented by a treeEntry in the registry (so Has/Len/IDs and the
// cached sizes behave identically), but an evicted entry's bag pointer is
// nil and its postings are absent from the shards — lookups merge the
// tier's overlap contributions instead.
//
// The invariant everything below leans on: a document is resident XOR
// evicted. Its tuples are in the in-memory shards or reachable through
// the tier, never both, so the tier's overlaps merge into the per-doc
// accumulator by plain addition and the merged result is byte-identical
// to the all-in-RAM index (the differential tests in internal/store hold
// the whole stack to that). An entry keeps its doc number across the
// swap, so only its postings move.
//
// Eviction and promotion swap a document between the populations without
// changing its content, so they advance no epoch and leave the metric
// index untouched (it owns cloned bags). Both run under the registry
// write lock together with the store's own bookkeeping (the swap
// callback), which makes the tier handoff atomic with respect to every
// lookup: no lookup can observe a document in both tiers or in neither.
package forest

import (
	"fmt"

	"pqgram/internal/obs"
	"pqgram/internal/profile"
)

// TierPosting is one entry of a tier posting list: a document and the
// tuple's multiplicity in its bag.
type TierPosting struct {
	ID  string
	Cnt int
}

// TierStats is the work one tier read performed, for spans and counters.
type TierStats struct {
	SegmentsProbed  int64 // segments actually probed (bloom said maybe)
	BloomChecks     int64 // (segment, tuple) bloom membership tests
	BloomSkips      int64 // bloom tests that skipped the probe
	PostingsScanned int64 // posting entries decoded and merged
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
	// Overlaps accumulates |I(query) ∩ I(T)| for every live evicted
	// document sharing at least one tuple with the query — the tier-side
	// twin of overlapsLocked.
	Overlaps(q profile.Index) (map[string]int, TierStats)

	// Bag returns a fresh copy of one evicted document's bag, or
	// ok=false if the tier does not hold the document.
	Bag(id string) (bag profile.Index, ok bool)

	// ForEachPosting iterates the merged posting lists of every live
	// evicted document in ascending tuple order; entries are sorted by
	// document ID. Iteration stops at the first error, which is returned.
	ForEachPosting(fn func(lt profile.LabelTuple, entries []TierPosting) error) error
}

// SetTier attaches (or, with nil, detaches) the storage tier. The
// segmented store attaches itself at open time, before any lookups run.
func (f *Index) SetTier(t Tier) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tier = t
}

// Evicted reports whether the document is indexed with its bag evicted
// to the storage tier.
func (f *Index) Evicted(id string) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	e, ok := f.trees[id]
	//pqlint:allow lockcheck only the pointer's nil-ness is read; the pointer swaps only under the registry write lock, which f.mu:r excludes
	return ok && e.idx == nil
}

// ResidentSize returns the total bag cardinality over resident trees
// only — the posting entries the in-memory shards actually hold. Size
// counts evicted trees too (their sizes are cached in the registry), so
// Size minus ResidentSize is how much of the index lives in the storage
// tier; the segments benchmark plots this as resident memory.
func (f *Index) ResidentSize() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := int64(0)
	for _, e := range f.trees {
		//pqlint:allow lockcheck only the pointer's nil-ness is read; the pointer swaps only under the registry write lock, which f.mu:r excludes
		if e.idx != nil {
			n += e.size.Load()
		}
	}
	return int(n)
}

// EvictedLen returns how many indexed documents are currently evicted.
func (f *Index) EvictedLen() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := 0
	for _, e := range f.trees {
		//pqlint:allow lockcheck only the pointer's nil-ness is read; the pointer swaps only under the registry write lock, which f.mu:r excludes
		if e.idx == nil {
			n++
		}
	}
	return n
}

// Evict moves documents from the resident population to the tier: their
// postings leave the in-memory shards and their bags are dropped, keeping
// only the cached size and distinct-tuple count. swap (if non-nil) runs
// under the registry write lock after the removal — the store uses it to
// publish the segment that now serves these documents, so the handoff is
// atomic with respect to lookups. The caller must have made the documents
// durable in the tier first.
//
// Evicting changes no document's content, so the epoch does not advance
// and cached lookup results stay valid — by the time Evict runs, the tier
// answers exactly what the shards answered.
func (f *Index) Evict(ids []string, swap func()) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, id := range ids {
		e, ok := f.trees[id]
		if !ok {
			return fmt.Errorf("forest: tree %q not indexed", id)
		}
		if e.idx == nil {
			return fmt.Errorf("forest: tree %q already evicted", id)
		}
	}
	for _, id := range ids {
		e := f.trees[id]
		for lt, c := range e.idx {
			f.shardOf(lt).sub(lt, e.doc, c)
		}
		e.distinct = len(e.idx)
		e.idx = nil
	}
	if swap != nil {
		swap()
	}
	return nil
}

// Promote moves one evicted document back into the resident population
// with the given bag (owned by the forest afterwards) — the store calls
// it before applying incremental deltas to a flushed document. swap runs
// under the registry write lock after the postings are re-added; the
// store uses it to drop its tier location and tombstone the stale segment
// copy, so no lookup can count the document twice. Like Evict, promotion
// changes no content: no epoch advance, no metric maintenance.
func (f *Index) Promote(id string, bag profile.Index, swap func()) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.trees[id]
	if !ok {
		return fmt.Errorf("forest: tree %q not indexed", id)
	}
	if e.idx != nil {
		return fmt.Errorf("forest: tree %q already resident", id)
	}
	if bag == nil {
		return fmt.Errorf("forest: promoting %q with nil bag", id)
	}
	e.idx = bag
	e.size.Store(int64(bag.Size()))
	e.distinct = 0
	for lt, c := range bag {
		f.shardOf(lt).add(lt, e.doc, c)
	}
	if swap != nil {
		swap()
	}
	return nil
}

// AddEvicted registers a document that already lives in the tier, storing
// only its cached size and distinct-tuple count — the segmented store's
// open path uses it to rebuild the registry without reading any bag. It
// is an open-time operation: it fails once the metric index is built,
// because the metric needs the bag at insert time.
func (f *Index) AddEvicted(id string, size, distinct int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.trees[id]; ok {
		return fmt.Errorf("forest: tree %q already indexed", id)
	}
	if f.metric.built {
		return fmt.Errorf("forest: cannot add evicted %q with the metric index built", id)
	}
	f.registerLocked(id, nil, size).distinct = distinct
	f.epoch.Add(1)
	if m := f.obs.Load(); m != nil {
		m.adds.Inc()
	}
	return nil
}

// bagOfLocked returns the bag of one entry, fetching evicted bags from
// the tier (the returned copy is the caller's). Requires f.mu held (read
// suffices) and, for resident entries, e.mu if concurrent delta
// application must be excluded. It fails only on a tier inconsistency: an
// evicted entry the tier does not serve.
//
//pqlint:locked f.mu:r
func (f *Index) bagOfLocked(id string, e *treeEntry) (profile.Index, error) {
	if e.idx != nil { //pqlint:allow lockcheck the pointer is stable under f.mu; callers that must exclude concurrent delta application hold e.mu as documented above
		return e.idx, nil
	}
	if f.tier == nil {
		return nil, fmt.Errorf("forest: tree %q is evicted and no tier is attached", id)
	}
	bag, ok := f.tier.Bag(id)
	if !ok {
		return nil, fmt.Errorf("forest: tree %q is evicted but the tier does not hold it", id)
	}
	return bag, nil
}

// tierOverlapsLocked returns the tier's overlap contributions (nil without
// a tier) and records the tier read's work on the span and counters. A
// document lives in exactly one tier, so callers merge by plain addition.
// Requires f.mu held (read suffices).
//
//pqlint:locked f.mu:r
func (f *Index) tierOverlapsLocked(q profile.Index, m *metrics, sp *obs.Span) map[string]int {
	if f.tier == nil {
		return nil
	}
	tsp := sp.Child("tier")
	tov, st := f.tier.Overlaps(q)
	tsp.SetAttr("segments_probed", st.SegmentsProbed)
	tsp.SetAttr("bloom_checks", st.BloomChecks)
	tsp.SetAttr("bloom_skips", st.BloomSkips)
	tsp.SetAttr("postings_scanned", st.PostingsScanned)
	tsp.SetAttr("candidates", int64(len(tov)))
	tsp.Finish()
	if m != nil {
		m.bloomChecks.Add(st.BloomChecks)
		m.bloomSkips.Add(st.BloomSkips)
		m.tierSegmentsProbed.Add(st.SegmentsProbed)
		m.tierPostingsScanned.Add(st.PostingsScanned)
	}
	return tov
}

// joinTierPairsLocked scores the similarity-join pairs with at least one
// evicted member: a sequential sweep of the tier's merged posting lists,
// pairing tier documents with each other and with the resident documents
// on the same tuple. Resident×resident pairs are the stripe sweep's job
// (SimilarityJoinWorkers), so together the two passes cover every
// candidate pair exactly once. Requires f.mu held (read suffices).
//
//pqlint:locked f.mu:r
func (f *Index) joinTierPairsLocked(j *joinSweep) ([]Pair, int64) {
	if f.tier == nil {
		return nil, 0
	}
	total := make(map[pairKey]int)
	var pruned int64
	emit := func(a, b posting) {
		if k, ov, ok := j.pair(a, b); ok {
			total[k] += ov
		} else {
			pruned++
		}
	}
	var live []posting // the tuple's tier entries, by doc number
	err := f.tier.ForEachPosting(func(lt profile.LabelTuple, entries []TierPosting) error {
		live = live[:0]
		for _, te := range entries {
			// A racing removal may have taken the document already.
			if e := f.trees[te.ID]; e != nil {
				live = append(live, posting{e.doc, uint32(te.Cnt)})
			}
		}
		s := f.shardOf(lt)
		s.mu.RLock()
		for i, a := range live {
			for _, b := range live[i+1:] {
				emit(a, b)
			}
			for _, b := range s.postings[lt] {
				emit(a, b)
			}
		}
		s.mu.RUnlock()
		return nil
	})
	if err != nil {
		// The callback above never returns an error; a tier read failure
		// panics inside the tier (see Tier).
		panic(err)
	}
	return j.score(total), pruned
}
