// Top-k lookups: the overlap accumulation of the exhaustive lookup
// (overlapsLocked) scored into a bounded heap of the k best (topHeap,
// forest.go). There is no other top-k path; PlanMode does not change how
// these are answered.

package forest

import (
	"time"

	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// LookupTopK returns the k indexed trees nearest to the query by pq-gram
// distance (fewer if the forest is smaller), sorted by ascending distance
// with ties broken by ID. Every PlanMode answers it the same way: overlaps
// accumulated through the postings, the k best kept in a bounded heap.
func (f *Index) LookupTopK(query *tree.Tree, k int) []Match {
	return f.LookupIndexTopK(profile.BuildIndex(query, f.pr), k)
}

// LookupIndexTopK is LookupTopK for a precomputed query index.
func (f *Index) LookupIndexTopK(q profile.Index, k int) []Match {
	m := f.obs.Load()
	var sp *obs.Span
	if m != nil {
		sp = m.col.StartTrace("forest.topk")
	}
	out := f.lookupIndexTopKSpanned(q, k, m, sp)
	sp.Finish()
	return out
}

// lookupIndexTopKSpanned is the LookupIndexTopK body with the trace span
// threaded through; see lookupIndexSpanned. The plan is always
// planExhaustive.
func (f *Index) lookupIndexTopKSpanned(q profile.Index, k int, m *metrics, sp *obs.Span) []Match {
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	qSize := q.Size()
	f.mu.RLock()
	if k <= 0 || len(f.trees) == 0 {
		f.mu.RUnlock()
		return nil
	}
	sp.SetAttr("q_size", int64(qSize))
	sp.SetAttr("trees", int64(len(f.trees)))
	sp.SetAttr("k", int64(k))
	out := f.lookupTopExhaustiveLocked(q, qSize, k, m, sp)
	f.mu.RUnlock()
	sp.SetAttr("plan", int64(planCode(planExhaustive)))
	sp.SetAttr("matches", int64(len(out)))
	if m != nil {
		m.lookups.Inc()
		m.topkLookups.Inc()
		m.lookupMatches.Add(int64(len(out)))
		m.lookupNS.ObserveSince(t0)
	}
	return out
}

// Always false: there is no metric index. This method remains only for
// benchmark/adapter.go:253, its one caller, which a change outside
// benchmark/ may not edit; nothing else may call it, and it goes when
// that line does.
func (f *Index) MetricReady() bool { return false }

// lookupTopExhaustiveLocked is top-k on the overlap accumulation: the
// trees sharing a tuple with the query are scored from their accumulated
// overlap into a bounded heap of the k best, and the trees sharing none
// (all at overlap 0) are offered only when those leave the heap short. The
// final sort settles ties by ID, so the ranking is that of scoring every
// tree. Requires f.mu held (read suffices) and k > 0.
//
//pqlint:locked f.mu:r
func (f *Index) lookupTopExhaustiveLocked(q profile.Index, qSize, k int, m *metrics, sp *obs.Span) []Match {
	scan := sp.Child("scan")
	defer scan.Finish()
	sc := f.overlapsLocked(q, m, sp, scan)
	defer sc.release()
	h := topHeap{k: k, ms: make([]Match, 0, min(k, len(f.trees)))}
	for _, doc := range sc.touched {
		e := f.docs[doc]
		h.offer(Match{TreeID: e.id, Distance: distanceFrom(qSize, int(e.size.Load()), int(sc.acc[doc].ov))})
	}
	if !h.full() {
		for doc, e := range f.docs {
			if e != nil && sc.acc[doc].ov == 0 {
				h.offer(Match{TreeID: e.id, Distance: distanceFrom(qSize, int(e.size.Load()), 0)})
			}
		}
	}
	sortMatches(h.ms)
	return h.ms
}
