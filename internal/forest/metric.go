// Metric-space index over the forest: a vantage-point tree that answers
// exact top-k / nearest-neighbor queries by pq-gram distance without
// scoring every document.
//
// # Which distance the tree is built on
//
// The normalized pq-gram distance (Definition 3) violates the triangle
// inequality (see internal/profile/metric.go for the counterexample), so
// a VP-tree pruning on it directly would be unsound. The tree is instead
// organized by the *absolute* bag distance
//
//	D(I, I') = |I| + |I'| − 2·|I ∩ I'|,
//
// the L1 distance between multiplicity vectors — a true metric. Each
// subtree stores the interval of D-distances to its vantage plus the
// range of bag sizes below it; a query lower-bounds the *normalized*
// distance of everything in a subtree from those integers by evaluating
// profile.DistanceFrom — the exact scoring expression — at the best
// feasible (size, overlap) integer points. A subtree is skipped only when
// that bound strictly exceeds the current k-th best distance, so the
// result is byte-identical to the brute-force scan, ties and all.
//
// # Incremental maintenance
//
// The structure is maintained incrementally once built (lazily on the
// first metric-planned query):
//
//   - Add buffers the document in a pending list that queries scan
//     linearly; the buffer is flushed into the tree by routed inserts
//     once it grows past a fraction of the tree.
//   - Remove tombstones the document's node; dead nodes keep routing
//     (their bag still anchors the stored distance intervals) but are
//     never reported.
//   - Update tombstones the old node and re-buffers the document with the
//     deltas applied, so stored intervals never go stale.
//   - Each flush rebuilds any subtree whose members are mostly dead.
//
// Every bag the metric index holds is metric-owned (cloned on entry), so
// concurrent in-place maintenance of the live bags can never invalidate a
// stored routing distance.
//
// # Locking
//
// metricIndex.mu nests strictly inside the registry lock and the tree
// entry locks: mutation hooks run under f.mu (write) or f.mu (read) +
// e.mu and take mi.mu last; queries hold f.mu (read) + mi.mu (read) and
// touch no entry or shard locks. Building happens only under f.mu held
// for writing. No code path acquires an entry or shard lock while holding
// mi.mu, so the order registry → entry → shard/metric is acyclic.

package forest

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"pqgram/internal/core"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// metricFlushBase bounds the pending buffer: it is flushed into the tree
// once it exceeds metricFlushBase plus 1/8 of the tree.
const metricFlushBase = 32

// vpItem is one document handed to the VP-tree builder: a metric-owned
// bag and its cached cardinality.
type vpItem struct {
	id   string
	bag  profile.Index
	size int
}

// vpNode is one VP-tree node. The node's own document is the vantage of
// its subtree: members with D(vantage, x) ≤ radius live inside, the rest
// outside. All aggregate fields cover the whole subtree including the
// vantage itself; they are extended by inserts and never shrunk by
// tombstones, so they stay conservative (supersets of the live values)
// until a rebuild tightens them.
type vpNode struct {
	id   string
	bag  profile.Index // metric-owned; never mutated while reachable
	size int
	dead bool

	radius          int
	inside, outside *vpNode
	parent          *vpNode

	total, live  int // subtree node counts (incl. self; live ≤ total)
	szMin, szMax int // bag-size range over the subtree
	inLo, inHi   int // D(vantage, x) range over the inside subtree
	outLo, outHi int // D(vantage, x) range over the outside subtree
}

// metricEntry is one buffered (pending) document.
type metricEntry struct {
	bag  profile.Index // metric-owned
	size int
}

// metricIndex is the VP-tree plus its pending buffer. The `built` flag is
// written only under f.mu held for writing and read under at least f.mu
// read, so it needs no atomics of its own.
type metricIndex struct {
	mu      sync.RWMutex
	built   bool
	root    *vpNode
	byID    map[string]*vpNode      // live documents resident in the tree
	pending map[string]*metricEntry // buffered documents, disjoint from byID
	dead    int                     // tombstones in the tree
}

// metricDist returns the absolute distance D(q, bag) and the overlap it
// was derived from, so scorers can evaluate profile.DistanceFrom on the
// exact same integers the postings paths use.
func metricDist(q profile.Index, qSize int, bag profile.Index, bagSize int) (d, ov int) {
	ov = q.IntersectSize(bag)
	return profile.MetricDistanceFrom(qSize, bagSize, ov), ov
}

// idHash64 is FNV-1a over the id, the deterministic pseudo-random key
// used to pick vantages (ties broken by larger id).
func idHash64(id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 1099511628211
	}
	return h
}

// buildVP constructs a VP-tree over the items. Construction is
// deterministic and independent of the input order: the vantage is the
// item with the largest id hash, and members are partitioned around the
// median of (distance, id). Items at the median distance all go inside,
// so the invariant "inside ⇔ D ≤ radius" is exact.
func buildVP(items []vpItem, parent *vpNode) *vpNode {
	if len(items) == 0 {
		return nil
	}
	vi := 0
	vh := idHash64(items[0].id)
	for i := 1; i < len(items); i++ {
		if h := idHash64(items[i].id); h > vh || (h == vh && items[i].id > items[vi].id) {
			vi, vh = i, h
		}
	}
	items[0], items[vi] = items[vi], items[0]
	v := items[0]
	n := &vpNode{
		id: v.id, bag: v.bag, size: v.size, parent: parent,
		total: len(items), live: len(items),
		szMin: v.size, szMax: v.size,
	}
	rest := items[1:]
	if len(rest) == 0 {
		return n
	}
	type distItem struct {
		d  int
		it vpItem
	}
	ds := make([]distItem, len(rest))
	for i, it := range rest {
		d, _ := metricDist(v.bag, v.size, it.bag, it.size)
		ds[i] = distItem{d, it}
		if it.size < n.szMin {
			n.szMin = it.size
		}
		if it.size > n.szMax {
			n.szMax = it.size
		}
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].d != ds[j].d {
			return ds[i].d < ds[j].d
		}
		return ds[i].it.id < ds[j].it.id
	})
	h := (len(ds) + 1) / 2
	for h < len(ds) && ds[h].d == ds[h-1].d {
		h++
	}
	n.radius = ds[h-1].d
	n.inLo, n.inHi = ds[0].d, ds[h-1].d
	in := make([]vpItem, h)
	for i := 0; i < h; i++ {
		in[i] = ds[i].it
	}
	n.inside = buildVP(in, n)
	if h < len(ds) {
		n.outLo, n.outHi = ds[h].d, ds[len(ds)-1].d
		out := make([]vpItem, len(ds)-h)
		for i := h; i < len(ds); i++ {
			out[i-h] = ds[i].it
		}
		n.outside = buildVP(out, n)
	}
	return n
}

// indexByID records every node of the subtree in byID (live nodes only).
func indexByID(n *vpNode, byID map[string]*vpNode) {
	if n == nil {
		return
	}
	if !n.dead {
		byID[n.id] = n
	}
	indexByID(n.inside, byID)
	indexByID(n.outside, byID)
}

// collectLive gathers the live items of a subtree.
func collectLive(n *vpNode, out []vpItem) []vpItem {
	if n == nil {
		return out
	}
	if !n.dead {
		out = append(out, vpItem{id: n.id, bag: n.bag, size: n.size})
	}
	out = collectLive(n.inside, out)
	return collectLive(n.outside, out)
}

// treeLive returns the number of live documents resident in the tree.
func (mi *metricIndex) treeLive() int {
	if mi.root == nil {
		return 0
	}
	return mi.root.live
}

// buildLocked (re)builds the whole structure from the given items, which
// become metric-owned. Requires mi.mu held for writing (or exclusive
// access during construction).
func (mi *metricIndex) buildLocked(items []vpItem) {
	mi.root = buildVP(items, nil)
	mi.byID = make(map[string]*vpNode, len(items))
	indexByID(mi.root, mi.byID)
	mi.pending = make(map[string]*metricEntry)
	mi.dead = 0
	mi.built = true
}

// add buffers a new document. bag is cloned; the caller keeps ownership
// of its map. No-op until the index is built.
func (mi *metricIndex) add(id string, bag profile.Index) {
	if !mi.built {
		return
	}
	mi.mu.Lock()
	defer mi.mu.Unlock()
	mi.pending[id] = &metricEntry{bag: bag.Clone(), size: bag.Size()}
	mi.flushLocked()
}

// remove drops a document: pending entries are deleted, tree residents
// tombstoned. No-op until the index is built.
func (mi *metricIndex) remove(id string) {
	if !mi.built {
		return
	}
	mi.mu.Lock()
	defer mi.mu.Unlock()
	if _, ok := mi.pending[id]; ok {
		delete(mi.pending, id)
		return
	}
	mi.tombstoneLocked(id)
}

// tombstoneLocked marks the tree-resident node of id dead and propagates
// the live-count decrement to the root. Requires mi.mu held for writing.
func (mi *metricIndex) tombstoneLocked(id string) {
	n := mi.byID[id]
	if n == nil {
		return
	}
	delete(mi.byID, id)
	n.dead = true
	mi.dead++
	for p := n; p != nil; p = p.parent {
		p.live--
	}
}

// applyDeltas maintains the metric copy of one document's bag after an
// incremental update (Algorithm 1 deltas). Pending entries are updated in
// place; tree residents are tombstoned — their frozen bag still anchors
// the stored routing intervals — and re-buffered with the deltas applied.
// No-op until the index is built.
func (mi *metricIndex) applyDeltas(id string, iPlus, iMinus profile.Index) error {
	if !mi.built {
		return nil
	}
	mi.mu.Lock()
	defer mi.mu.Unlock()
	e := mi.pending[id]
	if e == nil {
		n := mi.byID[id]
		if n == nil {
			return fmt.Errorf("forest: metric index has no document %q", id)
		}
		e = &metricEntry{bag: n.bag.Clone(), size: n.size}
		mi.tombstoneLocked(id)
		mi.pending[id] = e
	}
	if err := core.ApplyDeltas(e.bag, iPlus, iMinus); err != nil {
		return fmt.Errorf("forest: metric index: %w", err)
	}
	e.size += iPlus.Size() - iMinus.Size()
	mi.flushLocked()
	return nil
}

// flushLocked empties the pending buffer into the tree by routed inserts
// (in ascending id order, so the structure is deterministic for a given
// operation history) and then rebuilds any subtree whose members are
// mostly dead. Requires mi.mu held for writing.
func (mi *metricIndex) flushLocked() {
	if len(mi.pending) <= metricFlushBase+mi.treeLive()/8 {
		return
	}
	ids := make([]string, 0, len(mi.pending))
	for id := range mi.pending {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		e := mi.pending[id]
		mi.insertLocked(vpItem{id: id, bag: e.bag, size: e.size})
	}
	mi.pending = make(map[string]*metricEntry)
	if mi.dead > 0 {
		mi.root = mi.rebuildDirtyLocked(mi.root, nil)
	}
}

// insertLocked routes one item from the root to a leaf position,
// extending the aggregates along the path. Requires mi.mu held for
// writing.
func (mi *metricIndex) insertLocked(it vpItem) {
	if mi.root == nil {
		mi.root = &vpNode{
			id: it.id, bag: it.bag, size: it.size,
			total: 1, live: 1, szMin: it.size, szMax: it.size,
		}
		mi.byID[it.id] = mi.root
		return
	}
	n := mi.root
	for {
		n.total++
		n.live++
		if it.size < n.szMin {
			n.szMin = it.size
		}
		if it.size > n.szMax {
			n.szMax = it.size
		}
		d, _ := metricDist(n.bag, n.size, it.bag, it.size)
		if n.inside == nil && n.outside == nil {
			// Fresh leaf: the first child defines the radius.
			n.radius = d
		}
		leaf := &vpNode{
			id: it.id, bag: it.bag, size: it.size, parent: n,
			total: 1, live: 1, szMin: it.size, szMax: it.size,
		}
		if d <= n.radius {
			if n.inside == nil {
				n.inside, n.inLo, n.inHi = leaf, d, d
				mi.byID[it.id] = leaf
				return
			}
			if d < n.inLo {
				n.inLo = d
			}
			if d > n.inHi {
				n.inHi = d
			}
			n = n.inside
		} else {
			if n.outside == nil {
				n.outside, n.outLo, n.outHi = leaf, d, d
				mi.byID[it.id] = leaf
				return
			}
			if d < n.outLo {
				n.outLo = d
			}
			if d > n.outHi {
				n.outHi = d
			}
			n = n.outside
		}
	}
}

// rebuildDirtyLocked rebuilds every highest subtree in which tombstones
// outnumber live members, dropping the dead nodes and tightening the
// aggregates. Ancestor totals are fixed up by the caller loop via the
// returned replacement. Requires mi.mu held for writing.
func (mi *metricIndex) rebuildDirtyLocked(n, parent *vpNode) *vpNode {
	if n == nil {
		return nil
	}
	if dead := n.total - n.live; dead*2 > n.total {
		items := collectLive(n, make([]vpItem, 0, n.live))
		mi.dead -= dead
		fresh := buildVP(items, parent)
		indexByID(fresh, mi.byID)
		for p := parent; p != nil; p = p.parent {
			p.total -= dead
		}
		return fresh
	}
	n.inside = mi.rebuildDirtyLocked(n.inside, n)
	n.outside = mi.rebuildDirtyLocked(n.outside, n)
	return n
}

// vpSearch is the state of one top-k descent: the best k matches seen
// (the heap's root is the pruning bound) plus the pruning counters.
type vpSearch struct {
	topHeap
	q       profile.Index
	qSize   int
	visited int64 // distance computations (tree nodes + pending entries)
	pruned  int64 // subtrees skipped by the triangle/size bound
}

// normLowerBound lower-bounds the normalized pq-gram distance of any
// document whose absolute distance to the query is at least dlb and whose
// bag size lies in [szMin, szMax]. It evaluates profile.DistanceFrom —
// the exact scoring expression — at the feasible integer points where the
// real-valued bound attains its minimum (the size best matching the
// query, the size where the triangle and size bounds cross, the interval
// endpoints, and their parity neighbors), so a prune decided against it
// can never disagree with the scoring path by even an ulp.
func normLowerBound(qSize, dlb, szMin, szMax int) float64 {
	best := math.Inf(1)
	try := func(s int) {
		if s < szMin {
			s = szMin
		}
		if s > szMax {
			s = szMax
		}
		u := qSize + s
		if u < dlb {
			// D ≤ |I|+|I'| always, so no document of this size can be at
			// distance ≥ dlb; the size is infeasible for this subtree.
			return
		}
		ov := qSize
		if s < ov {
			ov = s
		}
		if o := (u - dlb) / 2; o < ov {
			ov = o
		}
		if ov < 0 {
			ov = 0
		}
		if d := profile.DistanceFrom(qSize, s, ov); d < best {
			best = d
		}
	}
	for _, s := range [...]int{
		szMin, szMin + 1, szMax - 1, szMax,
		qSize - 1, qSize, qSize + 1,
		qSize + dlb - 1, qSize + dlb, qSize + dlb + 1,
		dlb - qSize, dlb - qSize + 1,
	} {
		try(s)
	}
	return best
}

// childBound lower-bounds the normalized distance of every document in
// the child subtree, given dq = D(query, vantage) and the stored interval
// [lo, hi] of vantage distances. A negative result means the subtree is
// empty of live documents and can be skipped outright.
func childBound(child *vpNode, dq, lo, hi, qSize int) float64 {
	if child == nil || child.live == 0 {
		return -1
	}
	dlb := 0
	if d := dq - hi; d > dlb {
		dlb = d
	}
	if d := lo - dq; d > dlb {
		dlb = d
	}
	return normLowerBound(qSize, dlb, child.szMin, child.szMax)
}

// visit descends one subtree, scoring the vantage and recursing into the
// children in ascending bound order, skipping any child whose bound
// strictly exceeds the current k-th best distance.
func (s *vpSearch) visit(n *vpNode) {
	if n == nil || n.live == 0 {
		return
	}
	dq, ov := metricDist(s.q, s.qSize, n.bag, n.size)
	s.visited++
	if !n.dead {
		s.offer(Match{TreeID: n.id, Distance: profile.DistanceFrom(s.qSize, n.size, ov)})
	}
	inB := childBound(n.inside, dq, n.inLo, n.inHi, s.qSize)
	outB := childBound(n.outside, dq, n.outLo, n.outHi, s.qSize)
	first, second := n.inside, n.outside
	fb, sb := inB, outB
	if outB >= 0 && (inB < 0 || outB < inB) {
		first, second = n.outside, n.inside
		fb, sb = outB, inB
	}
	if fb >= 0 {
		if s.full() && fb > s.ms[0].Distance {
			s.pruned++
		} else {
			s.visit(first)
		}
	}
	if sb >= 0 {
		if s.full() && sb > s.ms[0].Distance {
			s.pruned++
		} else {
			s.visit(second)
		}
	}
}

// lookupTopMetricLocked answers a top-k lookup through the VP-tree:
// pending documents are scored linearly, then the tree is descended with
// best-bound-first ordering and strict-inequality pruning. Requires f.mu
// held (read suffices) and a built metric index. The result is identical
// to lookupTopExhaustiveLocked on the same forest state.
func (f *Index) lookupTopMetricLocked(q profile.Index, qSize, k int, m *metrics, sp *obs.Span) []Match {
	mi := &f.metric
	mi.mu.RLock()
	defer mi.mu.RUnlock()
	descent := sp.Child("vp_descent")
	s := &vpSearch{topHeap: topHeap{k: k}, q: q, qSize: qSize}
	for id, e := range mi.pending {
		_, ov := metricDist(q, qSize, e.bag, e.size)
		s.visited++
		s.offer(Match{TreeID: id, Distance: profile.DistanceFrom(qSize, e.size, ov)})
	}
	s.visit(mi.root)
	out := s.ms
	sortMatches(out)
	descent.SetAttr("pending", int64(len(mi.pending)))
	descent.SetAttr("nodes_visited", s.visited)
	descent.SetAttr("pruned_triangle", s.pruned)
	descent.Finish()
	if m != nil {
		m.metricNodesVisited.Add(s.visited)
		m.metricPrunedTriangle.Add(s.pruned)
	}
	return out
}

// buildMetric builds the VP-tree from the current forest under the
// registry write lock (so no bag can change mid-clone). It is a no-op if
// another builder got there first.
func (f *Index) buildMetric() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.metric.built {
		return
	}
	items := make([]vpItem, 0, len(f.trees))
	for _, id := range f.idsLocked() {
		e := f.trees[id]
		var bag profile.Index
		if e.idx != nil {
			bag = e.idx.Clone()
		} else {
			// Evicted: the tier already hands back a private copy. A tier
			// inconsistency here would answer top-k queries wrongly, so it
			// is fatal rather than skipped.
			fetched, err := f.bagOfLocked(id, e)
			if err != nil {
				panic(err)
			}
			bag = fetched
		}
		items = append(items, vpItem{id: id, bag: bag, size: bag.Size()})
	}
	f.metric.buildLocked(items)
	if m := f.obs.Load(); m != nil {
		m.metricBuilds.Inc()
	}
}

// MetricReady reports whether the VP-tree metric index is currently
// built. It is built lazily by the first top-k lookup under PlanMetric and
// by nothing else; until then mutations carry no metric overhead.
func (f *Index) MetricReady() bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.metric.built
}

// LookupNearest returns the single nearest indexed tree to the query by
// pq-gram distance (ties by smallest ID), or ok=false on an empty forest.
func (f *Index) LookupNearest(query *tree.Tree) (Match, bool) {
	out := f.LookupIndexTopK(profile.BuildIndex(query, f.pr), 1)
	if len(out) == 0 {
		return Match{}, false
	}
	return out[0], true
}

// LookupTopK returns the k indexed trees nearest to the query by pq-gram
// distance (fewer if the forest is smaller), sorted by ascending distance
// with ties broken by ID. The candidate strategy is a planner decision
// (PlanMode): every mode but PlanMetric accumulates overlaps through the
// postings and keeps the k best, PlanMetric descends the VP-tree; results
// are identical either way.
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
	out, _ := f.lookupIndexTopKSpanned(q, k, m, sp)
	sp.Finish()
	return out
}

// lookupIndexTopKSpanned is the LookupIndexTopK body with the trace span
// threaded through; see lookupIndexSpanned.
func (f *Index) lookupIndexTopKSpanned(q profile.Index, k int, m *metrics, sp *obs.Span) ([]Match, string) {
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	qSize := q.Size()
	f.mu.RLock()
	if k <= 0 || len(f.trees) == 0 {
		f.mu.RUnlock()
		return nil, planExhaustive
	}
	// Only PlanMetric descends — and therefore builds — the VP-tree; no
	// other mode makes a request pay for the build under the write lock or
	// the writes that follow pay for the tree's maintenance.
	useMetric := f.PlanMode() == PlanMetric
	if useMetric && !f.metric.built {
		f.mu.RUnlock()
		f.buildMetric()
		f.mu.RLock()
	}
	sp.SetAttr("q_size", int64(qSize))
	sp.SetAttr("trees", int64(len(f.trees)))
	sp.SetAttr("k", int64(k))
	var out []Match
	var plan string
	if useMetric && f.metric.built && len(f.trees) > 0 {
		plan = planMetric
		out = f.lookupTopMetricLocked(q, qSize, k, m, sp)
	} else {
		plan = planExhaustive
		out = f.lookupTopExhaustiveLocked(q, qSize, k, m, sp)
	}
	f.mu.RUnlock()
	sp.SetAttr("plan", int64(planCode(plan)))
	sp.SetAttr("matches", int64(len(out)))
	if m != nil {
		m.lookups.Inc()
		m.topkLookups.Inc()
		m.lookupMatches.Add(int64(len(out)))
		m.lookupNS.ObserveSince(t0)
	}
	if len(out) == 0 {
		return nil, plan
	}
	return out, plan
}

// lookupTopExhaustiveLocked is top-k on the overlap accumulation: the
// trees sharing a tuple with the query are scored from their accumulated
// overlap into a bounded heap of the k best, and the trees sharing none
// (all at overlap 0) are offered only when those leave the heap short. The
// final sort settles ties by ID, so the ranking is that of scoring every
// tree — the reference the metric path must match. Requires f.mu held
// (read suffices) and k > 0.
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

// metricSelfCheckLocked verifies the metric index against the forest:
// every indexed document appears exactly once (tree or pending) with a
// bag equal to the live one, every routing interval and subtree aggregate
// contains the true values, and the partition invariant D ≤ radius ⇔
// inside holds. Requires f.mu held for writing and the index built.
//
//pqlint:locked f.mu
func (f *Index) metricSelfCheckLocked() error {
	mi := &f.metric
	seen := make(map[string]bool, len(f.trees))
	check := func(id string, bag profile.Index, size int) error {
		if seen[id] {
			return fmt.Errorf("forest: metric index lists document %q twice", id)
		}
		seen[id] = true
		e, ok := f.trees[id]
		if !ok {
			return fmt.Errorf("forest: metric index has unknown document %q", id)
		}
		live, err := f.bagOfLocked(id, e)
		if err != nil {
			return err
		}
		if !bag.Equal(live) {
			return fmt.Errorf("forest: metric bag of %q diverged from the live bag", id)
		}
		if size != bag.Size() {
			return fmt.Errorf("forest: metric size of %q is %d, want %d", id, size, bag.Size())
		}
		return nil
	}
	for id, e := range mi.pending {
		if err := check(id, e.bag, e.size); err != nil {
			return err
		}
	}
	var walk func(n *vpNode) error
	walk = func(n *vpNode) error {
		if n == nil {
			return nil
		}
		if !n.dead {
			if mi.byID[n.id] != n {
				return fmt.Errorf("forest: metric byID out of sync for %q", n.id)
			}
			if err := check(n.id, n.bag, n.size); err != nil {
				return err
			}
		}
		live, total := 1, 1
		if n.dead {
			live = 0
		}
		for _, c := range []*vpNode{n.inside, n.outside} {
			if c == nil {
				continue
			}
			if c.parent != n {
				return fmt.Errorf("forest: metric parent link broken at %q", c.id)
			}
			live += c.live
			total += c.total
			if c.szMin < n.szMin || c.szMax > n.szMax {
				return fmt.Errorf("forest: metric size range of %q not contained in parent", c.id)
			}
		}
		if live != n.live || total != n.total {
			return fmt.Errorf("forest: metric counts at %q are live=%d total=%d, want %d/%d",
				n.id, n.live, n.total, live, total)
		}
		if n.size < n.szMin || n.size > n.szMax {
			return fmt.Errorf("forest: metric size range at %q excludes the vantage", n.id)
		}
		verify := func(c *vpNode, lo, hi int, in bool) error {
			var err error
			var sub func(x *vpNode)
			sub = func(x *vpNode) {
				if x == nil || err != nil {
					return
				}
				d, _ := metricDist(n.bag, n.size, x.bag, x.size)
				if d < lo || d > hi {
					err = fmt.Errorf("forest: metric interval at %q excludes member %q", n.id, x.id)
				} else if in && d > n.radius {
					err = fmt.Errorf("forest: inside member %q of %q beyond the radius", x.id, n.id)
				} else if !in && d <= n.radius {
					err = fmt.Errorf("forest: outside member %q of %q within the radius", x.id, n.id)
				}
				sub(x.inside)
				sub(x.outside)
			}
			sub(c)
			return err
		}
		if err := verify(n.inside, n.inLo, n.inHi, true); err != nil {
			return err
		}
		if err := verify(n.outside, n.outLo, n.outHi, false); err != nil {
			return err
		}
		if err := walk(n.inside); err != nil {
			return err
		}
		return walk(n.outside)
	}
	if err := walk(mi.root); err != nil {
		return err
	}
	if len(seen) != len(f.trees) {
		return fmt.Errorf("forest: metric index covers %d documents, forest has %d", len(seen), len(f.trees))
	}
	return nil
}
