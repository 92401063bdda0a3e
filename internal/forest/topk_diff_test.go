// Differential and metamorphic battery for top-k lookups: they must
// return results byte-identical to the brute-force k-smallest scan — same
// IDs, same float distances, same (distance, id) tie-breaks — on every
// seed, every k shape, and under concurrent incremental maintenance. The
// brute-force reference here is computed from scratch via per-tree
// Index.Distance, so it shares no code with the postings path.

package forest_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/gen"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// bruteTopK is the independent reference: score every indexed tree with
// Index.Distance on a copied bag, sort by (distance, id), truncate to k.
func bruteTopK(f *forest.Index, q profile.Index, k int) []forest.Match {
	if k <= 0 {
		return nil
	}
	var out []forest.Match
	for _, id := range f.IDs() {
		out = append(out, forest.Match{TreeID: id, Distance: q.Distance(f.TreeIndex(id))})
	}
	forest.SortMatchesForTest(out)
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// topkAllModes runs the same top-k query through every planner mode plus
// the independent brute force and fails on any divergence.
func topkAllModes(t *testing.T, f *forest.Index, q profile.Index, k int, ctx string) []forest.Match {
	t.Helper()
	want := bruteTopK(f, q, k)
	modes := []struct {
		name string
		mode forest.PlanMode
	}{
		{"exhaustive", forest.PlanExhaustive},
		{"auto", forest.PlanAuto},
		{"pruned", forest.PlanPruned},
	}
	for _, m := range modes {
		f.SetPlanMode(m.mode)
		got := f.LookupIndexTopK(q, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s top-%d diverged from brute force\ngot:  %v\nwant: %v",
				ctx, m.name, k, got, want)
		}
	}
	f.SetPlanMode(forest.PlanAuto)
	return want
}

// TestTopKDifferential is the randomized sweep: 200 seeds, each building
// a random forest (mixed generators, duplicate documents, occasionally a
// forest of identical trees so every distance ties) and querying it with
// members, perturbed members and unrelated trees at k ∈ {1, 5, |D|,
// |D|+1}. Every planner mode must match the independent brute force
// exactly, top-k must be a prefix of top-(k+1), and top-|D| must agree
// with the full threshold lookup at τ = ∞.
func TestTopKDifferential(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nDocs := rng.Intn(41) // 0..40: includes the empty forest
		identical := seed%23 == 0 && nDocs > 0
		f := forest.New(p33)
		var member *tree.Tree
		for i := 0; i < nDocs; i++ {
			var doc *tree.Tree
			switch {
			case identical:
				doc = tree.MustParse("a(b(c d) e)")
			case i > 0 && rng.Intn(5) == 0:
				doc = gen.RandomTree(rand.New(rand.NewSource(seed*100)), 10) // duplicate cluster
			case rng.Intn(3) == 0:
				doc = gen.RandomTree(rng, 2+rng.Intn(60))
			case rng.Intn(2) == 0:
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
		queries := []*tree.Tree{gen.RandomTree(rng, 1+rng.Intn(50))}
		if member != nil {
			queries = append(queries, member)
			if q, _, err := gen.Perturb(rng, member, 1+rng.Intn(12), gen.DefaultMix); err == nil {
				queries = append(queries, q)
			}
		}
		for qi, query := range queries {
			q := profile.BuildIndex(query, p33)
			ctx := fmt.Sprintf("seed %d query %d (|D|=%d)", seed, qi, nDocs)
			for _, k := range []int{1, 5, nDocs, nDocs + 1} {
				topkAllModes(t, f, q, k, ctx)
			}
			// Metamorphic: top-k is a prefix of top-(k+1).
			k := 1 + rng.Intn(nDocs+2)
			small, big := topkAllModes(t, f, q, k, ctx), topkAllModes(t, f, q, k+1, ctx)
			if len(small) > len(big) || !reflect.DeepEqual(small, big[:len(small)]) {
				t.Fatalf("%s: top-%d is not a prefix of top-%d\ntop-k:   %v\ntop-k+1: %v",
					ctx, k, k+1, small, big)
			}
			// Metamorphic: top-|D| is the τ=∞ threshold lookup, ranked.
			all := topkAllModes(t, f, q, nDocs, ctx)
			full := f.LookupIndex(q, 2)
			if nDocs == 0 {
				full = nil
			}
			if !reflect.DeepEqual(all, full) {
				t.Fatalf("%s: top-|D| disagrees with Lookup(τ=∞)\ntopk:   %v\nlookup: %v", ctx, all, full)
			}
		}
		if err := f.SelfCheck(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestTopKEdgeCases pins the boundary inputs individually: k ≤ 0, empty
// forest, empty query bag, duplicate trees (distance ties broken by ID),
// and k beyond the collection.
func TestTopKEdgeCases(t *testing.T) {
	empty := forest.New(p33)
	if got := empty.LookupTopK(tree.MustParse("a(b)"), 3); got != nil {
		t.Fatalf("top-k on empty forest = %v, want nil", got)
	}
	if got := empty.LookupTopK(tree.MustParse("a"), 1); len(got) != 0 {
		t.Fatalf("top-1 on empty forest = %v", got)
	}
	twins := buildForest(t, map[string]*tree.Tree{
		"t1": tree.MustParse("a(b c)"), "t2": tree.MustParse("a(b c)"), "t3": tree.MustParse("x(y)"),
	})
	q := profile.BuildIndex(tree.MustParse("a(b c)"), p33)
	for _, k := range []int{-1, 0} {
		if got := twins.LookupIndexTopK(q, k); got != nil {
			t.Fatalf("top-%d = %v, want nil", k, got)
		}
	}
	got := topkAllModes(t, twins, q, 2, "twins")
	if len(got) != 2 || got[0].Distance != 0 || got[1].Distance != 0 ||
		got[0].TreeID != "t1" || got[1].TreeID != "t2" {
		t.Fatalf("duplicate trees not tie-broken by ID: %v", got)
	}
	topkAllModes(t, twins, profile.Index{}, 2, "twins, empty query")
	topkAllModes(t, twins, q, 10, "twins, k beyond |D|")
	// k beyond the trees sharing a tuple with the query: the accumulation
	// touches only t1 and t2, and the rest of the answer is the disjoint
	// trees at distance 1 in ID order, however many k asks for.
	for _, id := range []string{"u9", "u7", "u8"} {
		if err := twins.Add(id, tree.MustParse("p(q r)")); err != nil {
			t.Fatal(err)
		}
	}
	for k, want := range map[int][]string{3: {"t1", "t2", "t3"}, 5: {"t1", "t2", "t3", "u7", "u8"}, 6: {"t1", "t2", "t3", "u7", "u8", "u9"}, 60: {"t1", "t2", "t3", "u7", "u8", "u9"}} {
		got := topkAllModes(t, twins, q, k, "distance-1 tail")
		if len(got) != len(want) {
			t.Fatalf("top-%d returned %d matches, want %d: %v", k, len(got), len(want), got)
		}
		for i, m := range got {
			if m.TreeID != want[i] || (i >= 2) != (m.Distance == 1) {
				t.Fatalf("top-%d = %v, want %v with everything past t2 at distance 1", k, got, want)
			}
		}
	}
	if got := twins.LookupTopK(tree.MustParse("a(b c)"), 1); len(got) != 1 || got[0].TreeID != "t1" || got[0].Distance != 0 {
		t.Fatalf("top-1 = %v; want t1 at 0", got)
	}
}

// TestTopKIncrementalMaintenance drives the forest through bulk adds,
// mass removal, incremental updates and re-adds under freed IDs,
// re-verifying top-k exactness and the structural invariants after every
// phase.
func TestTopKIncrementalMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := forest.New(p33)
	docs := make(map[string]*tree.Tree)
	for i := 0; i < 80; i++ {
		id := fmt.Sprintf("doc-%03d", i)
		docs[id] = gen.RandomTree(rng, 5+rng.Intn(40))
		if err := f.Add(id, docs[id]); err != nil {
			t.Fatal(err)
		}
	}
	query := gen.RandomTree(rng, 20)
	q := profile.BuildIndex(query, p33)
	check := func(phase string) {
		t.Helper()
		for _, k := range []int{1, 7, 40, 200} {
			topkAllModes(t, f, q, k, phase)
		}
		if err := f.SelfCheck(); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
	}
	for i := 80; i < 200; i++ {
		id := fmt.Sprintf("doc-%03d", i)
		docs[id] = gen.RandomTree(rng, 5+rng.Intn(40))
		if err := f.Add(id, docs[id]); err != nil {
			t.Fatal(err)
		}
	}
	check("after adds")
	// Remove three quarters of the collection.
	for i := 0; i < 150; i += 1 {
		id := fmt.Sprintf("doc-%03d", i)
		if err := f.Remove(id); err != nil {
			t.Fatal(err)
		}
		delete(docs, id)
	}
	check("after mass removal")
	for i := 150; i < 190; i++ {
		id := fmt.Sprintf("doc-%03d", i)
		_, log, err := gen.RandomScript(rng, docs[id], 1+rng.Intn(6), gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Update(id, docs[id], log); err != nil {
			t.Fatal(err)
		}
	}
	check("after incremental updates")
	// Re-add under previously removed IDs, then update those too.
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("doc-%03d", i)
		docs[id] = gen.RandomTree(rng, 5+rng.Intn(40))
		if err := f.Add(id, docs[id]); err != nil {
			t.Fatal(err)
		}
		_, log, err := gen.RandomScript(rng, docs[id], 1+rng.Intn(4), gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Update(id, docs[id], log); err != nil {
			t.Fatal(err)
		}
	}
	check("after re-adds and updates")
}

// TestTopKUnderConcurrentUpdates runs top-k lookups concurrently with
// AddAll batches, removes and incremental updates under the race
// detector, then verifies post-quiescence exactness in every planner
// mode.
func TestTopKUnderConcurrentUpdates(t *testing.T) {
	f := forest.New(p33)
	rng := rand.New(rand.NewSource(11))
	seedDocs := make([]forest.Doc, 24)
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
			for i := 0; i < 40; i++ {
				got := f.LookupIndexTopK(q, 1+(w+i)%9)
				for j := 1; j < len(got); j++ {
					if got[j].Distance < got[j-1].Distance ||
						(got[j].Distance == got[j-1].Distance && got[j].TreeID <= got[j-1].TreeID) {
						t.Errorf("unsorted top-k under concurrency: %v", got)
						return
					}
				}
			}
		}(w)
	}
	for b := 0; b < 4; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(100 + b)))
			batch := make([]forest.Doc, 6)
			for i := range batch {
				batch[i] = forest.Doc{
					ID:   fmt.Sprintf("batch-%d-%02d", b, i),
					Tree: gen.DBLP(int64(b*6+i), 30+i*7),
				}
			}
			if err := f.AddAll(batch, 2); err != nil {
				t.Error(err)
				return
			}
			// Each writer owns seed docs i ≡ b (mod 4): update or churn.
			for i := b; i < len(seedDocs); i += 4 {
				doc := seedDocs[i].Tree
				_, log, err := gen.RandomScript(wrng, doc, 1+wrng.Intn(5), gen.DefaultMix)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := f.Update(seedDocs[i].ID, doc, log); err != nil {
					t.Error(err)
					return
				}
				if wrng.Intn(2) == 0 {
					if err := f.Remove(seedDocs[i].ID); err != nil {
						t.Error(err)
						return
					}
					if err := f.Add(seedDocs[i].ID, doc); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(b)
	}
	wg.Wait()
	if err := f.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 5, 24, 48, 100} {
		topkAllModes(t, f, q, k, "post-concurrency")
	}
}
