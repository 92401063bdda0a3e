// Shape tests: the claims of the paper's evaluation (§9) as ordinary
// regression tests. Each asserts a shape — what grows with what — on
// deterministic work counters rather than wall clock, with a generous
// margin over the value measured when it was written, and cross-checks
// the incremental results against full rebuilds. The timings of the same
// experiments are the Fig*/Table2/Ablation benchmarks of bench_test.go;
// EXPERIMENTS.md pairs every table with the test here that asserts it.
package pqgram_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pqgram/internal/core"
	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/gen"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/store"
	"pqgram/internal/ted"
	"pqgram/internal/tree"
	"pqgram/internal/xmlconv"
)

// updateWork applies one random log of ops edits to doc (leaving Tₙ in
// it) and maintains two indexes of T₀ incrementally: a bag via
// core.UpdateIndexInPlace and a one-document forest via Update. Both must
// equal the rebuilt index of Tₙ. It returns the delta tuples the update
// computed, |Δ⁺|+|Δ⁻|, and the bag tuples the forest applied, |I⁺|+|I⁻|.
func updateWork(t *testing.T, doc *tree.Tree, rng *rand.Rand, ops int) (deltas, applied int64) {
	t.Helper()
	bag := profile.BuildIndex(doc, benchP)
	f := forest.New(benchP)
	if err := f.Add("doc", doc); err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	f.SetCollector(col)
	_, log, err := gen.RandomScript(rng, doc, ops, gen.DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.UpdateIndexInPlace(bag, doc, log, benchP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Update("doc", doc, log); err != nil {
		t.Fatal(err)
	}
	rebuilt := profile.BuildIndex(doc, benchP)
	if !bag.Equal(rebuilt) {
		t.Fatalf("%d nodes, |L|=%d: incremental update diverged from rebuild", doc.Size(), ops)
	}
	if !f.TreeIndex("doc").Equal(rebuilt) {
		t.Fatalf("%d nodes, |L|=%d: forest update diverged from rebuild", doc.Size(), ops)
	}
	applied = col.Counter("forest_update_grams_plus").Load() + col.Counter("forest_update_grams_minus").Load()
	return int64(st.PlusGrams + st.MinusGrams), applied
}

// spread is max/min of a positive series (+Inf if any value is 0).
func spread(xs []float64) float64 {
	lo, hi := math.Inf(1), 0.0
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return hi / lo
}

// TestShapeUpdateIndependentOfTreeSize is Figure 13 (right): the work of
// an incremental update depends on the log, not on the document. One
// 100-edit log on XMark documents of 12.5 k, 50 k and 200 k nodes: the bag
// grows 16× (32 472 to 519 368 tuples), the delta must not. Measured:
// |Δ⁺|+|Δ⁻| of 1 396, 1 296 and 1 382 (spread 1.08×), and the forest
// applies as many; the bound is 2×. An update that rebuilt the bag would
// touch ~|bag| tuples and spread ~16×.
func TestShapeUpdateIndependentOfTreeSize(t *testing.T) {
	var deltas, applied, bags []float64
	for _, n := range []int{12500, 50000, 200000} {
		doc := gen.XMark(int64(n), n)
		bags = append(bags, float64(profile.BuildIndex(doc, benchP).Size()))
		d, a := updateWork(t, doc, rand.New(rand.NewSource(int64(n)*17)), 100)
		t.Logf("%d nodes: |bag|=%.0f |Δ+|+|Δ-|=%d applied=%d", doc.Size(), bags[len(bags)-1], d, a)
		deltas, applied = append(deltas, float64(d)), append(applied, float64(a))
	}
	if s := spread(bags); s < 8 {
		t.Fatalf("the documents' bags span only %.1f×: the sweep no longer tests size independence", s)
	}
	if s := spread(deltas); s > 2 {
		t.Errorf("|Δ+|+|Δ-| spreads %.2f× over document sizes (bound 2×): %v", s, deltas)
	}
	if s := spread(applied); s > 2 {
		t.Errorf("the forest's applied |I+|+|I-| spreads %.2f× over document sizes (bound 2×): %v", s, applied)
	}
}

// TestShapeStoreUpdateIndependentOfTreeSize is Figure 13 (right) through
// the durable store, resident row: the documents and 100-edit logs of
// TestShapeUpdateIndependentOfTreeSize go through a Segmented store on
// MemFS, which checks, journals and applies each update. Its work is the
// bag tuples it copies (forest_bag_copy_tuples) plus the delta tuples the
// forest applies, and it must not grow with the document: an update
// copies no bag, and the work spreads ≤ 2×. Measured: 0 copies, applied
// |I+|+|I-| of 1 396, 1 296 and 1 382 (1.08×). A store that checked I⁻
// against a copy of the bag would copy 10 762, 34 471 and 114 340 distinct
// tuples per update (9.5×).
func TestShapeStoreUpdateIndependentOfTreeSize(t *testing.T) {
	var work []float64
	for _, n := range []int{12500, 50000, 200000} {
		doc := gen.XMark(int64(n), n)
		s, err := store.CreateSegmentedFS(fsio.NewMemFS(), "idx.pqg", benchP)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Add("doc", doc); err != nil {
			t.Fatal(err)
		}
		col := obs.NewCollector()
		s.SetCollector(col)
		_, log, err := gen.RandomScript(rand.New(rand.NewSource(int64(n)*17)), doc, 100, gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Update("doc", doc, log); err != nil {
			t.Fatal(err)
		}
		copies := col.Counter("forest_bag_copy_tuples").Load()
		applied := col.Counter("forest_update_grams_plus").Load() + col.Counter("forest_update_grams_minus").Load()
		if !s.Forest().TreeIndex("doc").Equal(profile.BuildIndex(doc, benchP)) {
			t.Fatalf("%d nodes: store update diverged from rebuild", doc.Size())
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("%d nodes: copied=%d applied=%d", doc.Size(), copies, applied)
		if copies != 0 {
			t.Errorf("%d nodes: the update copied %d bag tuples, want 0", doc.Size(), copies)
		}
		work = append(work, float64(copies+applied))
	}
	if s := spread(work); s > 2 {
		t.Errorf("the store's update work spreads %.2f× over document sizes (bound 2×): %v", s, work)
	}
}

// TestShapeUpdateLinearInLog is Figure 14 (right): the update's work
// grows linearly with the log. Logs of 1 to 1 000 edits on a 50 k-node
// DBLP document; the delta per edit at |L| = 1 000 must stay within 4× of
// its value at |L| = 10. Measured: 9.2 tuples per edit at 10, 9.6 at 100
// and 23.2 at 1 000 (2.5×).
func TestShapeUpdateLinearInLog(t *testing.T) {
	base := gen.DBLP(3, 50000)
	perEdit := map[int]float64{}
	for _, ops := range []int{1, 10, 100, 1000} {
		d, a := updateWork(t, base.Clone(), rand.New(rand.NewSource(int64(ops)*29)), ops)
		perEdit[ops] = float64(d) / float64(ops)
		t.Logf("|L|=%d: |Δ+|+|Δ-|=%d (%.1f per edit) applied=%d", ops, d, perEdit[ops], a)
	}
	if r := perEdit[1000] / perEdit[10]; r > 4 || r < 0.25 {
		t.Errorf("delta per edit at |L|=1000 is %.2f× its value at |L|=10 (bound 4×): %v", r, perEdit)
	}
}

// TestShapeIndexSizeSublinear is Figure 14 (left): the serialized index
// is smaller than the document's XML, 1,2-grams smaller than 3,3-grams,
// and idx(3,3)/XML falls as the document grows. Byte counts of seeded
// documents are exact. Measured idx(3,3)/XML at 12.5 k, 25 k, 50 k and
// 100 k nodes: 0.472, 0.416, 0.371, 0.333.
func TestShapeIndexSizeSublinear(t *testing.T) {
	size := func(doc *tree.Tree, pr profile.Params) int64 {
		f := forest.New(pr)
		if err := f.Add("doc", doc); err != nil {
			t.Fatal(err)
		}
		sz, err := store.Size(f)
		if err != nil {
			t.Fatal(err)
		}
		return sz
	}
	prev := math.Inf(1)
	for _, n := range []int{12500, 25000, 50000, 100000} {
		doc := gen.XMark(int64(n), n)
		xml, err := xmlconv.WriteString(doc)
		if err != nil {
			t.Fatal(err)
		}
		s12, s33 := size(doc, profile.Params{P: 1, Q: 2}), size(doc, benchP)
		ratio := float64(s33) / float64(len(xml))
		t.Logf("%d nodes: xml=%d idx(1,2)=%d idx(3,3)=%d idx(3,3)/xml=%.3f", doc.Size(), len(xml), s12, s33, ratio)
		if !(s12 < s33 && s33 < int64(len(xml))) {
			t.Errorf("%d nodes: want idx(1,2) %d < idx(3,3) %d < xml %d", doc.Size(), s12, s33, len(xml))
		}
		if ratio >= prev {
			t.Errorf("%d nodes: idx(3,3)/xml %.3f did not fall below %.3f", doc.Size(), ratio, prev)
		}
		prev = ratio
	}
}

// TestShapeIndexedLookupBelowOnTheFly is Figure 13 (left): an indexed
// lookup reads a fraction of the index, where the on-the-fly baseline
// builds every document's whole bag. Collections of 60 k nodes as 8, 64
// and 512 XMark documents, each asked a perturbed member at τ = 0.7. The
// indexed matches must equal the brute force over on-the-fly bags, and
// the postings the lookup scans must stay within half of the forest's
// tuples. Measured: 13 %, 19 % and 25 %.
func TestShapeIndexedLookupBelowOnTheFly(t *testing.T) {
	const tau = 0.7
	for _, nd := range []int{8, 64, 512} {
		docs := gen.XMarkForest(int64(nd), nd, 60000)
		f := forest.New(benchP)
		for i, d := range docs {
			if err := f.Add(fmt.Sprintf("doc-%d", i), d); err != nil {
				t.Fatal(err)
			}
		}
		query, _, err := gen.Perturb(rand.New(rand.NewSource(int64(nd)*13)), docs[nd/2], 10, gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		res := f.ExplainLookup(query, tau)

		q := profile.BuildIndex(query, benchP)
		want := map[string]float64{}
		for i, d := range docs {
			if dist := q.Distance(profile.BuildIndex(d, benchP)); dist < tau {
				want[fmt.Sprintf("doc-%d", i)] = dist
			}
		}
		if len(res.Matches) != len(want) || len(want) == 0 {
			t.Fatalf("%d docs: %d indexed matches, %d on the fly", nd, len(res.Matches), len(want))
		}
		for _, m := range res.Matches {
			if d, ok := want[m.TreeID]; !ok || math.Abs(d-m.Distance) > 1e-12 {
				t.Fatalf("%d docs: indexed match %s at %v, on the fly %v (found %v)", nd, m.TreeID, m.Distance, d, ok)
			}
		}

		scanned, total := res.Trace.SumAttr("postings_scanned"), int64(f.Size())
		t.Logf("%d docs: %d matches, %d of %d tuples scanned (%.0f%%)", nd, len(want), scanned, total, 100*float64(scanned)/float64(total))
		if scanned == 0 || 2*scanned > total {
			t.Errorf("%d docs: the lookup scanned %d postings of %d tuples (bound ½)", nd, scanned, total)
		}
	}
}

// TestPQRankingAgreesWithTED is the (p,q) ablation: 40 perturbations of
// one 150-node XMark document, ranked pairwise by pq-gram distance and by
// the exact tree edit distance (Zhang–Shasha). Every (p,q) must order at
// least 75 % of the pairs like TED — measured 83.7–94.6 % — and the mean
// distance must rise with p and q, since larger grams break on more edits
// (measured 0.113 at 1,1 to 0.235 at 4,4).
func TestPQRankingAgreesWithTED(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	base := gen.XMark(9, 150)
	mutants := make([]*tree.Tree, 40)
	teds := make([]int, len(mutants))
	for i := range mutants {
		m, _, err := gen.Perturb(rng, base, 1+rng.Intn(30), gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		mutants[i], teds[i] = m, ted.Distance(base, m)
	}
	prevMean := -1.0
	for _, pr := range []profile.Params{{P: 1, Q: 1}, {P: 1, Q: 2}, {P: 2, Q: 2}, {P: 3, Q: 3}, {P: 4, Q: 4}} {
		dists := make([]float64, len(mutants))
		mean := 0.0
		for i, m := range mutants {
			dists[i] = profile.Distance(base, m, pr)
			mean += dists[i] / float64(len(mutants))
		}
		agree, pairs := 0, 0
		for i := range mutants {
			for j := i + 1; j < len(mutants); j++ {
				if teds[i] == teds[j] {
					continue
				}
				pairs++
				if (teds[i] < teds[j]) == (dists[i] < dists[j]) {
					agree++
				}
			}
		}
		share := float64(agree) / float64(pairs)
		t.Logf("p,q=%d,%d: agreement %.1f%% over %d pairs, mean distance %.3f", pr.P, pr.Q, 100*share, pairs, mean)
		if share < 0.75 {
			t.Errorf("p,q=%d,%d: ranks %.1f%% of pairs like TED (bound 75%%)", pr.P, pr.Q, 100*share)
		}
		if mean <= prevMean {
			t.Errorf("p,q=%d,%d: mean distance %.3f does not rise above %.3f", pr.P, pr.Q, mean, prevMean)
		}
		prevMean = mean
	}
}
