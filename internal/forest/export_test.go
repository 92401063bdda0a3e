package forest

import "pqgram/internal/profile"

// CorruptBagForTest bumps one tuple count in id's bag (and the cached
// size) behind the postings' back, through the overlay. TreeIndex returns
// a copy precisely so that callers cannot do this; tests use the hook to
// prove SelfCheck would catch such corruption.
func CorruptBagForTest(f *Index, id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := f.trees[id]
	lt, c := e.base.At(0)
	e.over = map[profile.LabelTuple]int{lt: c + 1}
	e.size.Add(1)
}

// OverlayForTest reports how many tuples id's bag overlay holds: 0 right
// after a fold.
func OverlayForTest(f *Index, id string) int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	e := f.trees[id]
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.over)
}

// EvictedForTest reports whether id is indexed with its bag evicted to
// the storage tier.
func EvictedForTest(f *Index, id string) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	e, ok := f.trees[id]
	return ok && e.evicted
}

// NumShardsForTest exposes the stripe count for shard-distribution tests.
const NumShardsForTest = numShards

// SortRareFirstForTest orders tuples given by value and weight the way the
// tier read does (sortRareFirst) and returns the values in that order.
func SortRareFirstForTest(lts []profile.LabelTuple, weights []int) []profile.LabelTuple {
	var sc lookupScratch
	for i, lt := range lts {
		sc.tuples = append(sc.tuples, queryTuple{lt: lt, listLen: weights[i]})
	}
	sc.sortRareFirst()
	out := make([]profile.LabelTuple, len(sc.tuples))
	for i, t := range sc.tuples {
		out[i] = t.lt
	}
	return out
}

// CorruptionsForTest breaks, one each, the registry and posting-list
// invariants SelfCheck promises to catch. Every hook expects a forest
// with at least two resident trees sharing a tuple, one evicted tree and
// the highest doc number free; the test is single-threaded, so they take
// no lock.
var CorruptionsForTest = map[string]func(f *Index){
	"entry under another doc number": func(f *Index) {
		for _, e := range f.trees {
			e.doc = f.free[0]
			return
		}
	},
	"unregistered entry in docs": func(f *Index) {
		f.docs[f.free[0]] = &treeEntry{id: "ghost", doc: f.free[0]}
		f.free = f.free[:0]
	},
	"free number missing from the free list": func(f *Index) { f.free = f.free[:0] },
	"free list names a live number": func(f *Index) {
		for _, e := range f.trees {
			f.free = append(f.free, e.doc)
			return
		}
	},
	"posting list out of order": func(f *Index) {
		list := sharedListForTest(f)
		list[0], list[1] = list[1], list[0]
	},
	"zero count": func(f *Index) { sharedListForTest(f)[0].cnt = 0 },
	"posting names a free number": func(f *Index) {
		list := sharedListForTest(f)
		list[len(list)-1].doc = f.free[0]
	},
	"evicted tree with a posting": func(f *Index) {
		for _, e := range f.trees {
			if e.evicted {
				lt := profile.TupleOfLabels("*", "*", "evicted", "*", "*", "*")
				f.shardOf(lt).add(lt, e.doc, 1)
				return
			}
		}
	},
}

// sharedListForTest returns a posting list naming at least two trees.
func sharedListForTest(f *Index) []posting {
	for si := range f.shards {
		for _, list := range f.shards[si].postings {
			if len(list) >= 2 {
				return list
			}
		}
	}
	panic("no shared posting list")
}

// ChangeRingForTest exposes how many epoch advances Changed can name.
const ChangeRingForTest = changeRing
