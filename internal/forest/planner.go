// Threshold-aware query planning for approximate lookups. The pq-gram
// distance gives hard algebraic bounds (profile.SizeWindow and
// profile.MinOverlap, derived from Definition 3): a candidate within
// threshold τ of the query must have a bag size inside a window around the
// query's, and must share at least o_min tuples with it.
//
// Resident documents are read the same way by every lookup: one pass over
// the query's posting lists, a stripe lock per touched stripe, accumulating
// each document's overlap (accumulateLocked, forest.go), after which
// scoreLocked scores the candidates inside the size window. Pruning the
// resident traversal with the o_min bound — rare-first generation, then
// finishing the survivors against their bags — cost more than the pass it
// avoided, so there is none.
//
// The bounds pay where reading a list costs more than a memory walk: the
// storage tier (tier.go). Each run holds its own documents, so
// lookupRunsLocked plans it as a small forest of its own, over just the
// query tuples its filter admits:
//
//  1. Size filter — a candidate whose cached bag size falls outside the
//     window is rejected the first time a posting mentions it, before any
//     overlap is accumulated.
//  2. Rare-first traversal with early abandon — the query's tuples are
//     processed in ascending posting-list length; each candidate carries
//     (overlap so far, most the remaining tuples could add) and is dropped
//     the moment the sum falls below its o_min. Once the remaining tuples
//     cannot carry any new candidate past the bound, candidate generation
//     stops and the remaining lists are read only while a candidate
//     survives; a run whose filter rejects too much of the query is not
//     read at all.
//
// Every threshold lookup with 0 < τ ≤ 1 and a non-empty query reads the
// tier that way; top-k, τ > 1 and the empty query accumulate it whole
// (accumulateRunsLocked, tier.go). The traversal state (tuples, suffix bounds, accumulators
// indexed by doc number) is pooled, so a lookup allocates its result and
// nothing per posting or per candidate it touches. Pruning decisions only
// ever evaluate the exact scoring expression (profile.DistanceFrom) at
// integer boundaries, so the bounded read returns exactly what reading
// every run whole would; the differential tests in planner_test.go and
// tier_test.go hold it to that against a brute-force reference.

package forest

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

	"pqgram/internal/obs"
	"pqgram/internal/profile"
)

// queryTuple is one distinct label-tuple of the query during a lookup: its
// multiplicity in the query bag, the length of its resident posting list,
// and with a tier attached the number of runs whose filter admits it and
// its row of lookupScratch.admit.
type queryTuple struct {
	lt      profile.LabelTuple
	qc      int
	listLen int
	runs    int32
	row     int32
}

// candState is a run-local candidate accumulator of the pruned tier read,
// one per run ref. ov is the overlap accumulated so far; every posting adds
// at least 1, so 0 means the lookup has not touched the ref, and -1 marks a
// candidate that was rejected (dead copy, size filter) or abandoned
// (overlap bound) and must not be touched again.
type candState struct {
	ov   int32
	need int32 // o_min for this candidate's size
	size int32 // cached bag size at first touch
}

// lookupScratch is the pooled per-query traversal state. acc is all zero
// between lookups: release resets exactly the touched slots.
type lookupScratch struct {
	tuples  []queryTuple
	byShard [numShards][]int32 // indices into tuples, per postings stripe
	acc     []uint32           // overlap with the query, indexed by doc number
	touched []uint32           // docs whose acc slot is nonzero

	// The tier's share (admitRunsLocked, lookupRunsLocked).
	runs   []Run        // the tier's runs, for this lookup only
	admit  []uint64     // words per tuple, one bit per run: the run's filter admits the tuple
	words  int          // len of one admit row
	rej    []int        // per run, the query mass its filter rejected
	run    []candState  // one run's accumulators, indexed by ref; all zero between runs
	refs   []int32      // refs whose run slot is nonzero
	suffix []int        // per tuple, the most the run's admitted tuples from there on could add
	keys   []uint64     // sortRareFirst's packed sort keys
	spare  []queryTuple // sortRareFirst's copy of the tuples
}

// admits reports whether run r's filter admitted the tuple.
func (sc *lookupScratch) admits(t *queryTuple, r int) bool {
	return sc.admit[int(t.row)*sc.words+r>>6]&(1<<(r&63)) != 0
}

// resetRun zeroes the run accumulator slots the current run touched.
func (sc *lookupScratch) resetRun() {
	for _, ref := range sc.refs {
		sc.run[ref] = candState{}
	}
	sc.refs = sc.refs[:0]
}

// resized returns s with length n and every element zero, reallocating
// only when the capacity falls short.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

var scratchPool = sync.Pool{New: func() any { return new(lookupScratch) }}

// scratchLocked returns a scratch with the query's tuples grouped by
// stripe and an accumulator slot for every doc number. The accumulator is
// sized by the registry's capacity, so it is regrown only as often as
// docs itself. It requires f.mu held (read suffices).
//
//pqlint:locked f.mu:r
func (f *Index) scratchLocked(q profile.Index) *lookupScratch {
	sc := scratchPool.Get().(*lookupScratch)
	if len(sc.acc) < len(f.docs) {
		sc.acc = make([]uint32, cap(f.docs))
	}
	for lt, qc := range q {
		if qc <= 0 {
			continue // contributes no overlap; a zero would read as untouched
		}
		si := lt.Shard(shardBits)
		sc.byShard[si] = append(sc.byShard[si], int32(len(sc.tuples)))
		sc.tuples = append(sc.tuples, queryTuple{lt: lt, qc: qc})
	}
	return sc
}

// add accumulates ov > 0 onto doc's overlap, noting the first touch.
func (sc *lookupScratch) add(doc, ov uint32) {
	if sc.acc[doc] == 0 {
		sc.touched = append(sc.touched, doc)
	}
	sc.acc[doc] += ov
}

func (sc *lookupScratch) release() {
	sc.tuples = sc.tuples[:0]
	for i := range sc.byShard {
		sc.byShard[i] = sc.byShard[i][:0]
	}
	for _, doc := range sc.touched {
		sc.acc[doc] = 0
	}
	sc.touched = sc.touched[:0]
	sc.resetRun()
	clear(sc.runs) // a pooled scratch must not keep a retired run alive
	sc.runs = sc.runs[:0]
	scratchPool.Put(sc)
}

// weight is a tuple's rare-first sort weight: its resident posting-list
// length plus the number of runs that may hold it, clamped to 32 bits.
func (t *queryTuple) weight() uint64 {
	return min(uint64(t.listLen)+uint64(t.runs), math.MaxUint32)
}

// sortRareFirst orders sc.tuples by ascending weight, ties broken by tuple
// value so the traversal order is deterministic. The order is a heuristic
// only; exactness rests on the suffix sums. Rather than compare tuples it
// sorts one integer key per tuple — the weight in the top bits, then as
// many leading bits of the tuple value as fit, then the tuple's index —
// and puts the rare runs of keys equal but for the index in full tuple
// order afterwards.
func (sc *lookupScratch) sortRareFirst() {
	var maxW uint64
	for i := range sc.tuples {
		maxW = max(maxW, sc.tuples[i].weight())
	}
	n := len(sc.tuples)
	iBits, wBits := bits.Len(uint(n)), bits.Len64(maxW)
	pBits := 64 - wBits - iBits // a weight takes ≤ 32 bits, an index ≤ 31
	sc.keys = sc.keys[:0]
	for i := range sc.tuples {
		t := &sc.tuples[i]
		sc.keys = append(sc.keys, t.weight()<<(64-wBits)|uint64(t.lt)>>(64-pBits)<<iBits|uint64(i))
	}
	slices.Sort(sc.keys)
	sc.spare = append(sc.spare[:0], sc.tuples...)
	for i, k := range sc.keys {
		sc.tuples[i] = sc.spare[k&(1<<iBits-1)]
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && sc.keys[hi]>>iBits == sc.keys[lo]>>iBits {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(sc.tuples[lo:hi], func(x, y queryTuple) int { return cmp.Compare(x.lt, y.lt) })
		}
		lo = hi
	}
}

// bounds are the Def-3 bounds of one threshold lookup: the window
// [sizeLo, sizeHi] a candidate's bag size must lie in, and needMin, the
// loosest o_min over that window.
type bounds struct {
	qSize, sizeLo, sizeHi, needMin int
	tau                            float64
}

func newBounds(qSize int, tau float64) bounds {
	b := bounds{qSize: qSize, tau: tau}
	b.sizeLo, b.sizeHi = profile.SizeWindow(qSize, tau)
	b.needMin = profile.MinOverlap(qSize, b.sizeLo, tau)
	return b
}

// scoreLocked appends to out every doc of docs whose accumulated overlap
// puts it strictly within b.tau of the query, scoring only the docs whose
// cached size lies in the window. The span (nil-safe) and the counters
// receive the scored docs as "candidates" and the rest as "pruned_size".
// It requires f.mu held (read suffices).
//
//pqlint:locked f.mu:r
func (f *Index) scoreLocked(out []Match, sc *lookupScratch, docs []uint32, b *bounds, m *metrics, span *obs.Span) []Match {
	var examined int64
	for _, doc := range docs {
		e := f.docs[doc]
		size := int(e.size.Load())
		if size < b.sizeLo || size > b.sizeHi {
			continue
		}
		examined++
		if d := distanceFrom(b.qSize, size, int(sc.acc[doc])); d < b.tau {
			out = append(out, Match{TreeID: e.id, Distance: d})
		}
	}
	prunedSize := int64(len(docs)) - examined
	span.SetAttr("candidates", examined)
	span.SetAttr("pruned_size", prunedSize)
	m.lookupCandidates.Add(examined)
	m.lookupPrunedSize.Add(prunedSize)
	return out
}

// lookupRunsLocked appends to out the storage tier's matches of a pruned
// lookup, planning each run as a small forest of its own: over the tuples
// its filter admitted, rare first and under the suffix sums of just those,
// candidates are generated into an accumulator indexed by the run's refs —
// dead copies rejected and the size window applied at first touch — and
// once no new candidate can qualify the remaining lists are scanned only
// while a candidate survives. A run whose filter rejected more of the
// query than the loosest bound can spare is not read at all. The work
// lands on a "tier" child of sp and on the counters. Requires a tier, f.mu
// held (read suffices) and the resident pass done, which measured the
// list lengths.
//
//pqlint:locked f.mu:r
func (f *Index) lookupRunsLocked(out []Match, sc *lookupScratch, b *bounds, m *metrics, sp *obs.Span) []Match {
	w := f.admitRunsLocked(sc, b.qSize-b.needMin, sp)
	if len(sc.runs) > 0 {
		sc.sortRareFirst()
	}
	var examined, prunedSize, abandoned int64
	n := len(sc.tuples)
	for r, run := range sc.runs {
		if sc.rej[r] > b.qSize-b.needMin {
			w.pruned++
			continue
		}
		// suffix[i] = the most the run's admitted tuples i.. could add.
		sc.suffix = resized(sc.suffix, n+1)
		for i := n - 1; i >= 0; i-- {
			sc.suffix[i] = sc.suffix[i+1]
			if sc.admits(&sc.tuples[i], r) {
				sc.suffix[i] += sc.tuples[i].qc
			}
		}
		docs := run.Docs()
		if len(sc.run) < len(docs) {
			sc.run = make([]candState, len(docs))
		}
		live, generating := 0, true // live counts the slots with ov > 0
		for k := 0; k < n; k++ {
			t := &sc.tuples[k]
			if !sc.admits(t, r) {
				continue
			}
			if generating && sc.suffix[k] < b.needMin {
				// The rest cannot carry a new candidate past the bound, nor
				// some of the old ones; the others need the finish pass.
				generating = false
				for _, ref := range sc.refs {
					if st := &sc.run[ref]; st.ov > 0 && int(st.ov)+sc.suffix[k] < int(st.need) {
						st.ov = -1
						abandoned++
						live--
					}
				}
				if live > 0 {
					w.finished++
				}
			}
			if !generating && live == 0 {
				break
			}
			list := run.Postings(t.lt)
			w.scanned += int64(len(list))
			for _, e := range list {
				st := &sc.run[e.Ref]
				if st.ov < 0 || st.ov == 0 && !generating {
					continue
				}
				if st.ov == 0 {
					sc.refs = append(sc.refs, e.Ref)
					st.ov = -1 // until admitted
					doc := docs[e.Ref]
					if doc == NoDoc {
						continue
					}
					size := int(f.docs[doc].size.Load())
					if size < b.sizeLo || size > b.sizeHi {
						prunedSize++
						continue
					}
					*st = candState{size: int32(size), need: int32(profile.MinOverlap(b.qSize, size, b.tau))}
					live++
				}
				st.ov += int32(min(e.Cnt, uint32(t.qc)))
				if int(st.ov)+sc.suffix[k+1] < int(st.need) {
					st.ov = -1
					abandoned++
					live--
				}
			}
		}
		w.probed++
		for _, ref := range sc.refs {
			if st := sc.run[ref]; st.ov > 0 {
				examined++
				if d := distanceFrom(b.qSize, int(st.size), int(st.ov)); d < b.tau {
					out = append(out, Match{TreeID: f.docs[docs[ref]].id, Distance: d})
				}
			}
		}
		sc.resetRun()
	}
	w.span.SetAttr("candidates", examined)
	w.span.SetAttr("pruned_size", prunedSize)
	w.span.SetAttr("pruned_abandon", abandoned)
	w.record(m)
	m.lookupCandidates.Add(examined)
	m.lookupPrunedSize.Add(prunedSize)
	m.lookupPrunedAbandon.Add(abandoned)
	return out
}
