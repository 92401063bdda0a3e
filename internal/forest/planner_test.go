package forest_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/gen"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// plannerTaus covers the degenerate thresholds (0 admits nothing, 1 admits
// every overlapping tree, >1 admits disjoint trees) and a spread in
// between.
var plannerTaus = []float64{0, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1, 1.5}

// bruteLookup is the lookup's independent reference: the query's
// profile.Index.Distance to every indexed bag, kept strictly below tau, in
// the lookup's result order. Both sides evaluate profile.DistanceFrom on
// the same integers, so equality is exact.
func bruteLookup(f *forest.Index, q profile.Index, tau float64) []forest.Match {
	var out []forest.Match
	for _, id := range f.IDs() {
		if d := q.Distance(f.TreeIndex(id)); d < tau {
			out = append(out, forest.Match{TreeID: id, Distance: d})
		}
	}
	forest.SortMatches(out)
	return out
}

// checkLookup fails unless the lookup equals bruteLookup exactly — IDs,
// distances and order — and returns the answer.
func checkLookup(t *testing.T, f *forest.Index, q profile.Index, tau float64, ctx string) []forest.Match {
	t.Helper()
	want := bruteLookup(f, q, tau)
	if got := f.LookupIndex(q, tau); !matchesEqual(got, want) {
		t.Fatalf("%s: lookup diverged from brute force (tau=%v)\nlookup:      %v\nbrute force: %v", ctx, tau, got, want)
	}
	return want
}

// checkJoin runs the similarity join at several worker counts and fails
// unless each run equals bruteJoin exactly.
func checkJoin(t *testing.T, f *forest.Index, tau float64, ctx string) []forest.Pair {
	t.Helper()
	want := bruteJoin(t, f, tau)
	for _, w := range []int{1, 3} {
		if got := f.SimilarityJoin(tau, w); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: join diverged from brute force (tau=%v, workers=%d)\njoin:        %v\nbrute force: %v", ctx, tau, w, got, want)
		}
	}
	return want
}

// bruteJoin is the join's independent reference: profile.Index.Distance
// between the TreeIndex copies of every pair of f.IDs(), in the join's
// result order. Both sides evaluate profile.DistanceFrom on the same
// integers, so equality is exact.
func bruteJoin(t *testing.T, f *forest.Index, tau float64) []forest.Pair {
	t.Helper()
	ids := f.IDs()
	bags := make([]profile.Index, len(ids))
	for i, id := range ids {
		if bags[i] = f.TreeIndex(id); bags[i] == nil {
			t.Fatalf("TreeIndex(%q) = nil for an indexed tree", id)
		}
	}
	var out []forest.Pair
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if d := bags[i].Distance(bags[j]); d < tau {
				out = append(out, forest.Pair{A: ids[i], B: ids[j], Distance: d})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Distance < out[j].Distance })
	return out
}

// TestPlannerDifferential is the randomized sweep: 200 seeds, each
// building a random forest (mixed generators, 1 to 40 documents) and
// querying it with perturbed members, unrelated trees and indexed members
// themselves, across the full tau sweep. Every lookup must equal the
// brute-force one — IDs and distances — and so must the join.
func TestPlannerDifferential(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nDocs := 1 + rng.Intn(40)
		f := forest.New(p33)
		var member *tree.Tree
		for i := 0; i < nDocs; i++ {
			var doc *tree.Tree
			switch rng.Intn(3) {
			case 0:
				doc = gen.RandomTree(rng, 2+rng.Intn(60))
			case 1:
				doc = gen.DBLP(seed*31+int64(i%4), 20+rng.Intn(80))
			default:
				doc = gen.XMark(seed*37+int64(i%3), 20+rng.Intn(80))
			}
			if err := f.Add(fmt.Sprintf("doc-%03d", i), doc); err != nil {
				t.Fatal(err)
			}
			if member == nil {
				member = doc
			}
		}
		// Queries: a perturbed member (real candidate sets), an indexed
		// member itself (distance-0 hit), and an unrelated random tree.
		queries := []*tree.Tree{member, gen.RandomTree(rng, 1+rng.Intn(50))}
		if q, _, err := gen.Perturb(rng, member, 1+rng.Intn(12), gen.DefaultMix); err == nil {
			queries = append(queries, q)
		}
		for qi, query := range queries {
			q := profile.BuildIndex(query, p33)
			for _, tau := range plannerTaus {
				checkLookup(t, f, q, tau, fmt.Sprintf("seed %d query %d", seed, qi))
			}
		}
		// The brute-force join is quadratic; run it on a tau subset.
		for _, tau := range []float64{0, 0.3, 0.7, 1, 1.5} {
			checkJoin(t, f, tau, fmt.Sprintf("seed %d", seed))
		}
	}
}

// TestPlannerEdgeCases pins the boundary inputs individually: empty query
// index, documents indexed with empty bags, single-tree collection,
// identical trees, tau at exactly 0 and 1.
func TestPlannerEdgeCases(t *testing.T) {
	single := buildForest(t, map[string]*tree.Tree{"only": tree.MustParse("a(b c(d))")})
	twins := buildForest(t, map[string]*tree.Tree{
		"t1": tree.MustParse("a(b c)"), "t2": tree.MustParse("a(b c)"), "t3": tree.MustParse("x(y)"),
	})
	// Two empty bags beside a real one: an empty query is at distance 0
	// from each and at distance 1 from the rest, and so is one empty bag
	// from the other in the join. Empty bags have no postings.
	empties := forest.New(p33)
	for id, bag := range map[string]profile.Index{"e1": {}, "e2": {}, "real": profile.BuildIndex(tree.MustParse("a(b c)"), p33)} {
		if err := empties.AddIndex(id, profile.Freeze(bag)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		f    *forest.Index
		q    profile.Index
	}{
		{"empty query, single tree", single, profile.Index{}},
		{"empty query, twins", twins, profile.Index{}},
		{"empty query, empty bags", empties, profile.Index{}},
		{"member query, empty bags", empties, profile.BuildIndex(tree.MustParse("a(b c)"), p33)},
		{"single tree, matching query", single, profile.BuildIndex(tree.MustParse("a(b c(d))"), p33)},
		{"twins, exact-member query", twins, profile.BuildIndex(tree.MustParse("a(b c)"), p33)},
		{"twins, disjoint query", twins, profile.BuildIndex(tree.MustParse("zzz"), p33)},
	} {
		for _, tau := range plannerTaus {
			checkLookup(t, tc.f, tc.q, tau, tc.name)
		}
	}
	for _, tau := range plannerTaus {
		checkJoin(t, empties, tau, "empty bags")
	}
	// The empty query finds both empty bags at distance 0 at every
	// positive τ, as a threshold lookup and as a top-k lookup alike.
	zero := []forest.Match{{TreeID: "e1"}, {TreeID: "e2"}}
	for _, tau := range []float64{0.5, 1, 1.5} {
		if got := empties.LookupIndex(profile.Index{}, tau); len(got) < 2 || !matchesEqual(got[:2], zero) {
			t.Fatalf("tau %v: empty query found %v, want e1 and e2 at distance 0 first", tau, got)
		}
	}
	if got := empties.LookupIndexTopK(profile.Index{}, 1); !matchesEqual(got, zero[:1]) {
		t.Fatalf("empty query top-1 = %v, want e1 at distance 0", got)
	}
	// Exact duplicates must surface at distance 0 for any positive tau.
	got := twins.LookupIndex(profile.BuildIndex(tree.MustParse("a(b c)"), p33), 0.5)
	if len(got) < 2 || got[0].Distance != 0 || got[1].Distance != 0 {
		t.Fatalf("lookup missed exact duplicates: %v", got)
	}
}

// sizeSpreadForest indexes 120 DBLP-shaped documents whose sizes spread
// far past the Def-3 window of the returned query (a perturbed member of
// their family), so a threshold lookup touches documents of every size.
func sizeSpreadForest(t *testing.T) (*forest.Index, *tree.Tree) {
	t.Helper()
	f := forest.New(p33)
	for i := 0; i < 120; i++ {
		if err := f.Add(fmt.Sprintf("doc-%03d", i), gen.DBLP(int64(i%5), 20+5*i)); err != nil {
			t.Fatal(err)
		}
	}
	query, _, err := gen.Perturb(rand.New(rand.NewSource(7)), gen.DBLP(0, 120), 4, gen.DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	return f, query
}

// scanSpan returns the "scan" child of an explained lookup.
func scanSpan(t *testing.T, res forest.ExplainResult) obs.SpanSnapshot {
	t.Helper()
	for _, c := range res.Trace.Children {
		if c.Name == "scan" {
			return c
		}
	}
	t.Fatalf("no scan span in %+v", res.Trace)
	return obs.SpanSnapshot{}
}

// TestPlannerPrunesObservably attaches a collector and checks what a
// resident lookup reports: one "scan" span carrying the postings read and
// the candidates scored, with the documents the Def-3 size window rejected
// counted in pruned_size, on the span and the counters alike — and nothing
// abandoned, since only the tier is planned.
func TestPlannerPrunesObservably(t *testing.T) {
	f, query := sizeSpreadForest(t)
	col := obs.NewCollector()
	f.SetCollector(col)
	defer f.SetCollector(nil)
	before := col.Snapshot()
	res := f.ExplainLookup(query, 0.3)
	d := col.Snapshot().CounterDeltas(before)
	examined, prunedSize := d["forest_lookup_candidates_examined"], d["forest_lookup_pruned_size"]
	if examined == 0 || prunedSize == 0 {
		t.Fatalf("examined %d, size window rejected %d; want both nonzero", examined, prunedSize)
	}
	if n := d["forest_lookup_pruned_abandon"]; n != 0 {
		t.Fatalf("a resident lookup abandoned %d candidates", n)
	}
	scan := scanSpan(t, res)
	if scan.Attrs["postings_scanned"] == 0 || scan.Attrs["candidates"] != examined || scan.Attrs["pruned_size"] != prunedSize {
		t.Fatalf("scan attrs %v, counters examined %d pruned_size %d", scan.Attrs, examined, prunedSize)
	}
	if len(res.Trace.Children) != 2 {
		t.Fatalf("want profile.build and scan only, got %+v", res.Trace.Children)
	}
}

// TestLookupTauZeroReadsNothing pins τ = 0: lookups are strict, d < τ, so
// nothing can match and no posting — resident or in the tier — is read.
func TestLookupTauZeroReadsNothing(t *testing.T) {
	docs := gen.XMarkForest(5, 24, 2400)
	resident, tiered, _, _ := tieredCopy(t, docs)
	for _, f := range []*forest.Index{resident, tiered} {
		res := f.ExplainLookup(docs[3], 0)
		if len(res.Matches) != 0 {
			t.Fatalf("tau 0 matched %v", res.Matches)
		}
		for _, attr := range []string{"postings_scanned", "bloom_checks"} {
			if n := res.Trace.SumAttr(attr); n != 0 {
				t.Fatalf("tau 0 lookup has %s = %d", attr, n)
			}
		}
	}
}

// TestSortRareFirst holds the tier's tuple order, which sorts packed
// integer keys, to the plain comparison: ascending weight, ties by tuple
// value — also when many values share their leading bits, so the packed
// keys tie and the order rests on the fix-up pass.
func TestSortRareFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 7, 300, 2000} {
		for _, c := range []struct {
			name       string
			maxW, mask uint64 // weights below maxW; values vary only in mask's bits
		}{{"spread", 1 << 20, ^uint64(0)}, {"few weights", 3, ^uint64(0)}, {"shared prefix", 3, 0xffff}, {"one weight", 1, 0xfffff}} {
			lts := make([]profile.LabelTuple, n)
			weights := make([]int, n)
			seen := make(map[profile.LabelTuple]bool)
			base := rng.Uint64()
			for i := range lts {
				for {
					lts[i] = profile.LabelTuple(base&^c.mask | rng.Uint64()&c.mask)
					if !seen[lts[i]] {
						break
					}
				}
				seen[lts[i]] = true
				weights[i] = int(rng.Uint64() % c.maxW)
			}
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(a, b int) bool {
				x, y := idx[a], idx[b]
				if weights[x] != weights[y] {
					return weights[x] < weights[y]
				}
				return lts[x] < lts[y]
			})
			got := forest.SortRareFirstForTest(lts, weights)
			for i, j := range idx {
				if got[i] != lts[j] {
					t.Fatalf("n=%d %s: position %d holds %x, want %x", n, c.name, i, got[i], lts[j])
				}
			}
		}
	}
}

// TestPlannerUnderConcurrentAddAll runs lookups and joins concurrently
// with AddAll batches under the race detector, then verifies
// post-quiescence that both still equal the brute force on the final
// state.
func TestPlannerUnderConcurrentAddAll(t *testing.T) {
	f := forest.New(p33)
	rng := rand.New(rand.NewSource(11))
	seedDocs := make([]forest.Doc, 10)
	for i := range seedDocs {
		seedDocs[i] = forest.Doc{ID: fmt.Sprintf("seed-%02d", i), Tree: gen.DBLP(int64(i%3), 40+i)}
	}
	if err := f.AddAll(seedDocs, 2); err != nil {
		t.Fatal(err)
	}
	query, _, err := gen.Perturb(rng, seedDocs[0].Tree, 3, gen.DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	q := profile.BuildIndex(query, p33)

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				f.LookupIndex(q, 0.1+float64((w+i)%10)/10)
				if i%10 == 0 {
					f.SimilarityJoin(0.5, 2)
				}
			}
		}(w)
	}
	for b := 0; b < 4; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			batch := make([]forest.Doc, 5)
			for i := range batch {
				batch[i] = forest.Doc{
					ID:   fmt.Sprintf("batch-%d-%02d", b, i),
					Tree: gen.DBLP(int64(b*5+i), 30+i*7),
				}
			}
			if err := f.AddAll(batch, 2); err != nil {
				t.Error(err)
			}
		}(b)
	}
	wg.Wait()
	if err := f.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	for _, tau := range plannerTaus {
		checkLookup(t, f, q, tau, "post-concurrency")
	}
	checkJoin(t, f, 0.6, "post-concurrency")
}
