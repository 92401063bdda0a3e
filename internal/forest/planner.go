// Threshold-aware query planning for approximate lookups. The pq-gram
// distance gives hard algebraic bounds (profile.SizeWindow and
// profile.MinOverlap, derived from Definition 3): a candidate within
// threshold τ of the query must have a bag size inside a window around the
// query's, and must share at least o_min tuples with it. The pruned lookup
// path exploits both instead of accumulating the full overlap of every
// tree that shares even one posting:
//
//  1. Size filter — a candidate whose cached bag size falls outside the
//     window is rejected the first time a posting mentions it, before any
//     overlap is accumulated.
//  2. Rare-first traversal with early abandon — the query's tuples are
//     processed in ascending posting-list length; each candidate carries
//     (overlap so far, most the remaining tuples could add) and is dropped
//     the moment the sum falls below its o_min. Once the remaining tuples
//     cannot carry any new candidate past the bound, candidate generation
//     stops and the survivors are finished by probing their bags directly,
//     skipping the longest posting lists entirely.
//  3. Pooled scratch — the traversal state (tuple order, suffix bounds,
//     candidate accumulators indexed by doc number) is reused across
//     lookups of every plan, so a lookup allocates its result and nothing
//     per posting or per candidate it touches.
//  4. The storage tier under the same bounds — each run (tier.go) holds
//     its own documents, so lookupRunsLocked plans it as a small forest of
//     its own, over just the query tuples its filter admits.
//
// Pruning decisions only ever evaluate the exact scoring expression
// (profile.DistanceFrom) at integer boundaries, so the pruned path returns
// byte-identical results to the exhaustive one; the differential tests in
// planner_test.go hold it to that.

package forest

import (
	"cmp"
	"slices"
	"sync"

	"pqgram/internal/obs"
	"pqgram/internal/profile"
)

// PlanMode selects how threshold lookups gather candidates: Lookup,
// LookupMany, and SimilarityJoin, which is one such lookup per document.
// The zero value PlanAuto is the default. Top-k lookups are answered the
// same way in every mode (topk.go).
type PlanMode int32

const (
	// PlanAuto picks the threshold-aware pruned path when the bounds can
	// pay for themselves — τ < 1, a non-empty query index, and at least
	// prunedMinTrees indexed — and the exhaustive path otherwise.
	PlanAuto PlanMode = iota
	// PlanExhaustive always accumulates the full overlap of every tree
	// sharing at least one tuple with the query (the pre-planner
	// behavior). Benchmarks and the differential tests use it as the
	// reference path.
	PlanExhaustive
	// PlanPruned uses the threshold-aware path whenever it is sound
	// (0 < τ ≤ 1 and a non-empty query index), regardless of collection
	// size.
	PlanPruned
)

// prunedMinTrees is the smallest collection for which PlanAuto chooses the
// pruned path; below it the exhaustive accumulation is already cheap and
// the planner's bound computations are pure overhead.
const prunedMinTrees = 16

// SetPlanMode selects the query-planning mode. It may be called at any
// time, including concurrently with lookups; in-flight operations keep the
// mode they observed at entry.
func (f *Index) SetPlanMode(mode PlanMode) { f.plan.Store(int32(mode)) }

// PlanMode returns the current query-planning mode.
func (f *Index) PlanMode() PlanMode { return PlanMode(f.plan.Load()) }

// usePrunedLocked is the planner decision for one lookup. It requires
// f.mu held (read suffices). The pruned path is sound only for τ ≤ 1
// (above that, trees sharing no tuple qualify and postings cannot
// enumerate them) and a non-empty query bag.
//
//pqlint:locked f.mu:r
func (f *Index) usePrunedLocked(qSize int, tau float64) bool {
	if tau <= 0 || tau > 1 || qSize == 0 {
		return false
	}
	switch f.PlanMode() {
	case PlanExhaustive:
		return false
	case PlanPruned:
		return true
	default:
		return tau < 1 && len(f.trees) >= prunedMinTrees
	}
}

// queryTuple is one distinct label-tuple of the query during a lookup: its
// multiplicity in the query bag, on the pruned path the length of its
// posting list at planning time, and with a tier attached the number of
// runs whose filter admits it and its row of lookupScratch.admit.
type queryTuple struct {
	lt      profile.LabelTuple
	qc      int
	listLen int
	runs    int32
	row     int32
}

// candState is the per-candidate accumulator of a lookup, one per doc
// number. ov is the overlap accumulated so far; every posting adds at
// least 1, so 0 means the lookup has not touched the doc, and the pruned
// path stores -1 for a candidate that was rejected (size filter) or
// abandoned (overlap bound) and must not be touched again. need and size
// are the pruned path's.
type candState struct {
	ov   int32
	need int32 // o_min for this candidate's size
	size int32 // cached bag size at first touch
}

// lookupScratch is the pooled per-query traversal state. acc is all zero
// between lookups: release resets exactly the touched slots.
type lookupScratch struct {
	tuples  []queryTuple
	suffix  []int
	byShard [numShards][]int32 // indices into tuples, per postings stripe
	acc     []candState        // indexed by doc number
	touched []uint32           // docs whose acc slot is nonzero

	// The tier's share (admitRunsLocked, lookupRunsLocked).
	runs  []Run       // the tier's runs, for this lookup only
	admit []uint64    // words per tuple, one bit per run: the run's filter admits the tuple
	words int         // len of one admit row
	rej   []int       // per run, the query mass its filter rejected
	run   []candState // one run's accumulators, indexed by ref; all zero between runs
	refs  []int32     // refs whose run slot is nonzero
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
		sc.acc = make([]candState, cap(f.docs))
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
	st := &sc.acc[doc]
	if st.ov == 0 {
		sc.touched = append(sc.touched, doc)
	}
	st.ov += int32(ov)
}

func (sc *lookupScratch) release() {
	sc.tuples = sc.tuples[:0]
	sc.suffix = sc.suffix[:0]
	for i := range sc.byShard {
		sc.byShard[i] = sc.byShard[i][:0]
	}
	for _, doc := range sc.touched {
		sc.acc[doc] = candState{}
	}
	sc.touched = sc.touched[:0]
	sc.resetRun()
	clear(sc.runs) // a pooled scratch must not keep a retired run alive
	sc.runs = sc.runs[:0]
	scratchPool.Put(sc)
}

// prunedPlan is what the run-at-a-time planning of one pruned lookup
// shares: the bounds — needMin is the loosest o_min over the size window —
// and the accounting, where every candidate touched ends in one count.
type prunedPlan struct {
	qSize, sizeLo, sizeHi, needMin int
	tau                            float64

	examined   int64 // fully scored
	prunedSize int64 // rejected by the size window at first touch
	abandoned  int64 // dropped once the overlap bound closed
}

// lookupPrunedLocked is the threshold-aware lookup. It requires f.mu held
// (read suffices) and 0 < tau ≤ 1, qSize > 0. The result is identical to
// lookupExhaustiveLocked on the same index state. The span (nil-safe)
// receives a "tier" child covering the runs of an attached storage tier, a
// "generate" child covering the rare-first candidate generation over the
// shards — with the Def-3 size window and the loosest o_min bound as
// attributes — and a "verify" child covering the bag-probe finish.
//
//pqlint:locked f.mu:r
func (f *Index) lookupPrunedLocked(q profile.Index, qSize int, tau float64, m *metrics, sp *obs.Span) []Match {
	sc := f.scratchLocked(q)
	defer sc.release()

	// Read every posting-list length, one stripe lock per touched stripe.
	for si := range sc.byShard {
		if len(sc.byShard[si]) == 0 {
			continue
		}
		s := &f.shards[si]
		s.mu.RLock()
		for _, ti := range sc.byShard[si] {
			sc.tuples[ti].listLen = len(s.postings[sc.tuples[ti].lt])
		}
		s.mu.RUnlock()
	}
	sizeLo, sizeHi := profile.SizeWindow(qSize, tau)
	// The loosest per-candidate bound over the window; once the remaining
	// tuples cannot reach even this, no new candidate can qualify.
	needMin := profile.MinOverlap(qSize, sizeLo, tau)
	tier := prunedPlan{qSize: qSize, tau: tau, sizeLo: sizeLo, sizeHi: sizeHi, needMin: needMin}
	var tw tierWork
	if f.tier != nil {
		tw = f.admitRunsLocked(sc, qSize-needMin, sp)
	}
	// Rare first: ascending posting-list length plus the number of runs
	// that may hold the tuple, ties broken by tuple value so the traversal
	// order is deterministic. The order is a heuristic only; exactness
	// rests on the suffix sums.
	slices.SortFunc(sc.tuples, func(x, y queryTuple) int {
		if c := cmp.Compare(x.listLen+int(x.runs), y.listLen+int(y.runs)); c != 0 {
			return c
		}
		return cmp.Compare(x.lt, y.lt)
	})
	var out []Match
	if f.tier != nil {
		out = f.lookupRunsLocked(sc, &tier, &tw)
		tw.record(m)
	}
	// suffix[i] = the most overlap tuples i.. could still contribute.
	n := len(sc.tuples)
	sc.suffix = resized(sc.suffix, n+1)
	for i := n - 1; i >= 0; i-- {
		sc.suffix[i] = sc.suffix[i+1] + sc.tuples[i].qc
	}

	var examined, prunedSize, abandonGen, abandonVerify int64
	var scanned int64

	// Phase 1 — candidate generation over the rarest posting lists.
	gen := sp.Child("generate")
	verifyFrom := n
	for i := 0; i < n; i++ {
		if sc.suffix[i] < needMin {
			verifyFrom = i
			break
		}
		t := &sc.tuples[i]
		if t.listLen == 0 {
			continue
		}
		s := f.shardOf(t.lt)
		s.mu.RLock()
		scanned += int64(len(s.postings[t.lt]))
		for _, p := range s.postings[t.lt] {
			st := &sc.acc[p.doc]
			if st.ov < 0 {
				continue
			}
			if st.ov == 0 {
				sc.touched = append(sc.touched, p.doc)
				size := int(f.docs[p.doc].size.Load())
				if size < sizeLo || size > sizeHi {
					st.ov = -1
					prunedSize++
					continue
				}
				st.size, st.need = int32(size), int32(profile.MinOverlap(qSize, size, tau))
			}
			st.ov += int32(min(p.cnt, uint32(t.qc)))
			if int(st.ov)+sc.suffix[i+1] < int(st.need) {
				st.ov = -1
				abandonGen++
			}
		}
		s.mu.RUnlock()
	}
	gen.SetAttr("distinct_tuples", int64(n))
	gen.SetAttr("postings_scanned", scanned)
	gen.SetAttr("size_lo", int64(sizeLo))
	gen.SetAttr("size_hi", int64(sizeHi))
	gen.SetAttr("o_min", int64(needMin))
	gen.SetAttr("verify_from", int64(verifyFrom))
	gen.SetAttr("pruned_size", prunedSize)
	gen.SetAttr("pruned_abandon", abandonGen)
	gen.Finish()

	// Phase 2 — finish the survivors against their bags, skipping the
	// longest posting lists; abandon as soon as the bound closes.
	verify := sp.Child("verify")
	for _, doc := range sc.touched {
		st := sc.acc[doc]
		if st.ov < 0 {
			continue
		}
		e := f.docs[doc]
		ov, need := int(st.ov), int(st.need)
		if verifyFrom < n {
			e.mu.RLock()
			for j := verifyFrom; j < n; j++ {
				if ov+sc.suffix[j] < need {
					ov = -1
					break
				}
				if c := e.idx[sc.tuples[j].lt]; c > 0 {
					if c > sc.tuples[j].qc {
						c = sc.tuples[j].qc
					}
					ov += c
				}
			}
			e.mu.RUnlock()
			if ov < 0 {
				abandonVerify++
				continue
			}
		}
		// Only candidates that make it here are fully scored; size-killed
		// and abandoned ones land in their own counters, so the three
		// buckets partition every candidate the traversal touched.
		examined++
		if d := distanceFrom(qSize, int(st.size), ov); d < tau {
			out = append(out, Match{TreeID: e.id, Distance: d})
		}
	}
	verify.SetAttr("candidates", examined)
	verify.SetAttr("pruned_abandon", abandonVerify)
	verify.Finish()

	sortMatches(out)
	if m != nil {
		m.lookupCandidates.Add(examined + tier.examined)
		m.lookupPrunedSize.Add(prunedSize + tier.prunedSize)
		m.lookupPrunedAbandon.Add(abandonGen + abandonVerify + tier.abandoned)
	}
	return out
}

// lookupRunsLocked answers the pruned lookup for the storage tier's
// documents, planning each run as a small forest of its own: over the
// tuples its filter admitted, rare first and under the suffix sums of just
// those, candidates are generated into an accumulator indexed by the run's
// refs — dead copies rejected and the size window applied at first touch —
// and once no new candidate can qualify the remaining lists are scanned
// only while a candidate survives. A run whose filter rejected more of the
// query than the loosest bound can spare is not read at all. Requires f.mu
// held (read suffices) and sc.tuples sorted after admitRunsLocked.
//
//pqlint:locked f.mu:r
func (f *Index) lookupRunsLocked(sc *lookupScratch, p *prunedPlan, w *tierWork) (out []Match) {
	for r, run := range sc.runs {
		if sc.rej[r] > p.qSize-p.needMin {
			w.pruned++
			continue
		}
		// suffix[i] = the most the run's admitted tuples i.. could add.
		n := len(sc.tuples)
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
			if generating && sc.suffix[k] < p.needMin {
				// The rest cannot carry a new candidate past the bound, nor
				// some of the old ones; the others need the finish pass.
				generating = false
				for _, ref := range sc.refs {
					if st := &sc.run[ref]; st.ov > 0 && int(st.ov)+sc.suffix[k] < int(st.need) {
						st.ov = -1
						p.abandoned++
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
					if size < p.sizeLo || size > p.sizeHi {
						p.prunedSize++
						continue
					}
					*st = candState{size: int32(size), need: int32(profile.MinOverlap(p.qSize, size, p.tau))}
					live++
				}
				st.ov += int32(min(e.Cnt, uint32(t.qc)))
				if int(st.ov)+sc.suffix[k+1] < int(st.need) {
					st.ov = -1
					p.abandoned++
					live--
				}
			}
		}
		w.probed++
		for _, ref := range sc.refs {
			if st := sc.run[ref]; st.ov > 0 {
				p.examined++
				if d := distanceFrom(p.qSize, int(st.size), int(st.ov)); d < p.tau {
					out = append(out, Match{TreeID: f.docs[docs[ref]].id, Distance: d})
				}
			}
		}
		sc.resetRun()
	}
	w.candidates = p.examined
	w.span.SetAttr("pruned_size", p.prunedSize)
	w.span.SetAttr("pruned_abandon", p.abandoned)
	return out
}
