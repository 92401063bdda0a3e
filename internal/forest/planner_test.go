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

// lookupBoth runs the same lookup through both planner paths and fails if
// they differ in any way (IDs, distances, order).
func lookupBoth(t *testing.T, f *forest.Index, q profile.Index, tau float64, ctx string) []forest.Match {
	t.Helper()
	f.SetPlanMode(forest.PlanExhaustive)
	want := f.LookupIndex(q, tau)
	f.SetPlanMode(forest.PlanPruned)
	got := f.LookupIndex(q, tau)
	f.SetPlanMode(forest.PlanAuto)
	auto := f.LookupIndex(q, tau)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: pruned lookup diverged (tau=%v)\npruned:     %v\nexhaustive: %v", ctx, tau, got, want)
	}
	if !reflect.DeepEqual(auto, want) {
		t.Fatalf("%s: auto lookup diverged (tau=%v)\nauto:       %v\nexhaustive: %v", ctx, tau, auto, want)
	}
	return want
}

// joinBoth runs the similarity join in every plan mode at several worker
// counts and fails unless each run equals bruteJoin exactly, leaving the
// forest in PlanAuto.
func joinBoth(t *testing.T, f *forest.Index, tau float64, ctx string) []forest.Pair {
	t.Helper()
	want := bruteJoin(t, f, tau)
	for _, mode := range []forest.PlanMode{forest.PlanExhaustive, forest.PlanPruned, forest.PlanAuto} {
		f.SetPlanMode(mode)
		for _, w := range []int{1, 3} {
			if got := f.SimilarityJoinWorkers(tau, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: mode %v join diverged from brute force (tau=%v, workers=%d)\njoin:        %v\nbrute force: %v", ctx, mode, tau, w, got, want)
			}
		}
	}
	return want
}

// bruteJoin is the join's independent reference: Distance on every pair
// of f.IDs(), in the join's result order. Both sides evaluate
// profile.DistanceFrom on the same integers, so equality is exact.
func bruteJoin(t *testing.T, f *forest.Index, tau float64) []forest.Pair {
	t.Helper()
	ids := f.IDs()
	var out []forest.Pair
	for i := range ids {
		for _, b := range ids[i+1:] {
			d, err := f.Distance(ids[i], b)
			if err != nil {
				t.Fatal(err)
			}
			if d < tau {
				out = append(out, forest.Pair{A: ids[i], B: b, Distance: d})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Distance < out[j].Distance })
	return out
}

// TestPlannerDifferential is the randomized sweep: 200 seeds, each
// building a random forest (mixed generators, sizes crossing the PlanAuto
// threshold in both directions) and querying it with perturbed members,
// unrelated trees and indexed members themselves, across the full tau
// sweep. Pruned results must be deep-equal to exhaustive ones — IDs and
// distances — and the join in every mode must equal the brute-force one.
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
				lookupBoth(t, f, q, tau, fmt.Sprintf("seed %d query %d", seed, qi))
			}
		}
		// The brute-force join is quadratic; run it on a tau subset.
		for _, tau := range []float64{0, 0.3, 0.7, 1, 1.5} {
			joinBoth(t, f, tau, fmt.Sprintf("seed %d", seed))
		}
	}
}

// TestPlannerEdgeCases pins the boundary inputs individually: empty query
// index, single-tree collection, identical trees, tau at exactly 0 and 1.
func TestPlannerEdgeCases(t *testing.T) {
	single := buildForest(t, map[string]*tree.Tree{"only": tree.MustParse("a(b c(d))")})
	twins := buildForest(t, map[string]*tree.Tree{
		"t1": tree.MustParse("a(b c)"), "t2": tree.MustParse("a(b c)"), "t3": tree.MustParse("x(y)"),
	})
	for _, tc := range []struct {
		name string
		f    *forest.Index
		q    profile.Index
	}{
		{"empty query, single tree", single, profile.Index{}},
		{"empty query, twins", twins, profile.Index{}},
		{"single tree, matching query", single, profile.BuildIndex(tree.MustParse("a(b c(d))"), p33)},
		{"twins, exact-member query", twins, profile.BuildIndex(tree.MustParse("a(b c)"), p33)},
		{"twins, disjoint query", twins, profile.BuildIndex(tree.MustParse("zzz"), p33)},
	} {
		for _, tau := range plannerTaus {
			lookupBoth(t, tc.f, tc.q, tau, tc.name)
		}
	}
	// Exact duplicates must surface at distance 0 for any positive tau on
	// both paths.
	twins.SetPlanMode(forest.PlanPruned)
	got := twins.LookupIndex(profile.BuildIndex(tree.MustParse("a(b c)"), p33), 0.5)
	if len(got) < 2 || got[0].Distance != 0 || got[1].Distance != 0 {
		t.Fatalf("pruned lookup missed exact duplicates: %v", got)
	}
}

// TestPlannerPrunesObservably attaches a collector and checks that on a
// clustered workload with a selective threshold the pruned path (a)
// examines no more candidates than the exhaustive one and (b) actually
// reports pruning work through the new counters.
func TestPlannerPrunesObservably(t *testing.T) {
	f := forest.New(p33)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 120; i++ {
		var doc *tree.Tree
		if i%2 == 0 {
			doc = gen.DBLP(int64(i%5), 60+i%40)
		} else {
			doc = gen.RandomTree(rng, 5+rng.Intn(200))
		}
		if err := f.Add(fmt.Sprintf("doc-%03d", i), doc); err != nil {
			t.Fatal(err)
		}
	}
	query, _, err := gen.Perturb(rng, gen.DBLP(0, 80), 4, gen.DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	q := profile.BuildIndex(query, p33)

	col := obs.NewCollector()
	f.SetCollector(col)
	defer f.SetCollector(nil)

	f.SetPlanMode(forest.PlanExhaustive)
	before := col.Snapshot()
	f.LookupIndex(q, 0.3)
	mid := col.Snapshot()
	f.SetPlanMode(forest.PlanPruned)
	f.LookupIndex(q, 0.3)
	after := col.Snapshot()

	exDelta := mid.CounterDeltas(before)
	prDelta := after.CounterDeltas(mid)
	exExamined := exDelta["forest_lookup_candidates_examined"]
	prExamined := prDelta["forest_lookup_candidates_examined"]
	if exExamined == 0 {
		t.Fatal("exhaustive lookup examined no candidates; workload broken")
	}
	if prExamined > exExamined {
		t.Fatalf("pruned path examined %d candidates, exhaustive %d", prExamined, exExamined)
	}
	if prDelta["forest_lookup_pruned_size"]+prDelta["forest_lookup_pruned_abandon"] == 0 {
		t.Fatalf("pruned lookup reported no pruning at tau=0.3 (examined %d of %d)", prExamined, exExamined)
	}
}

// TestPlannerUnderConcurrentAddAll runs pruned lookups and joins
// concurrently with AddAll batches under the race detector, then verifies
// post-quiescence that both paths still agree on the final state.
func TestPlannerUnderConcurrentAddAll(t *testing.T) {
	f := forest.New(p33)
	f.SetPlanMode(forest.PlanPruned)
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
					f.SimilarityJoinWorkers(0.5, 2)
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
		lookupBoth(t, f, q, tau, "post-concurrency")
	}
	joinBoth(t, f, 0.6, "post-concurrency")
}
