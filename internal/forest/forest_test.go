package forest_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"pqgram/internal/core"
	"pqgram/internal/edit"
	"pqgram/internal/forest"
	"pqgram/internal/gen"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

var p33 = profile.Params{P: 3, Q: 3}

func buildForest(t *testing.T, trees map[string]*tree.Tree) *forest.Index {
	t.Helper()
	f := forest.New(p33)
	for id, tr := range trees {
		if err := f.Add(id, tr); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestAddRemoveHas(t *testing.T) {
	f := forest.New(p33)
	tr := tree.MustParse("a(b c)")
	if err := f.Add("doc1", tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("doc1", tr); err == nil {
		t.Fatal("duplicate add succeeded")
	}
	if !f.Has("doc1") || f.Len() != 1 {
		t.Fatal("Has/Len wrong after add")
	}
	if err := f.Remove("doc1"); err != nil {
		t.Fatal(err)
	}
	if f.Has("doc1") || f.Len() != 0 {
		t.Fatal("Has/Len wrong after remove")
	}
	if err := f.Remove("doc1"); err == nil {
		t.Fatal("double remove succeeded")
	}
	if f.Size() != 0 {
		t.Fatal("Size not zero after removal")
	}
}

func TestIDsSorted(t *testing.T) {
	f := buildForest(t, map[string]*tree.Tree{
		"c": tree.MustParse("a"), "a": tree.MustParse("a"), "b": tree.MustParse("a"),
	})
	ids := f.IDs()
	if len(ids) != 3 || ids[0] != "a" || ids[1] != "b" || ids[2] != "c" {
		t.Fatalf("IDs = %v", ids)
	}
}

func TestLookupMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	trees := make(map[string]*tree.Tree)
	base := gen.XMark(1, 150)
	trees["base"] = base
	for i := 0; i < 12; i++ {
		p, _, err := gen.Perturb(rng, base, 1+rng.Intn(20), gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		trees[fmt.Sprintf("perturbed-%02d", i)] = p
	}
	trees["unrelated"] = gen.DBLP(9, 120)
	f := buildForest(t, trees)

	query, _, err := gen.Perturb(rng, base, 3, gen.DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	qIdx := profile.BuildIndex(query, p33)

	for _, tau := range []float64{0.0, 0.2, 0.5, 0.9, 1.0, 1.5} {
		got := f.Lookup(query, tau)
		// Brute force: compute distance per tree directly.
		want := make(map[string]float64)
		for id, tr := range trees {
			if d := qIdx.Distance(profile.BuildIndex(tr, p33)); d < tau {
				want[id] = d
			}
		}
		if len(got) != len(want) {
			t.Fatalf("tau=%g: %d matches, want %d", tau, len(got), len(want))
		}
		for i, m := range got {
			d, ok := want[m.TreeID]
			if !ok || math.Abs(d-m.Distance) > 1e-12 {
				t.Fatalf("tau=%g: match %q dist %g, want %g (present %v)", tau, m.TreeID, m.Distance, d, ok)
			}
			if i > 0 && got[i-1].Distance > m.Distance {
				t.Fatalf("tau=%g: results not sorted", tau)
			}
		}
	}
}

func TestLookupSelfIsClosest(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := gen.XMark(2, 120)
	trees := map[string]*tree.Tree{"self": base}
	for i := 0; i < 5; i++ {
		p, _, err := gen.Perturb(rng, base, 5+i*5, gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		trees[fmt.Sprintf("other-%d", i)] = p
	}
	f := buildForest(t, trees)
	top := f.LookupTopK(base, 1)
	if len(top) != 1 || top[0].TreeID != "self" || top[0].Distance != 0 {
		t.Fatalf("top = %+v, want self at distance 0", top)
	}
}

func TestLookupTopK(t *testing.T) {
	f := buildForest(t, map[string]*tree.Tree{
		"x": tree.MustParse("a(b c)"),
		"y": tree.MustParse("a(b d)"),
		"z": tree.MustParse("q(w e)"),
	})
	top := f.LookupTopK(tree.MustParse("a(b c)"), 2)
	if len(top) != 2 {
		t.Fatalf("got %d results", len(top))
	}
	if top[0].TreeID != "x" || top[0].Distance != 0 {
		t.Fatalf("top1 = %+v", top[0])
	}
	if top[1].TreeID != "y" {
		t.Fatalf("top2 = %+v", top[1])
	}
	all := f.LookupTopK(tree.MustParse("a(b c)"), 99)
	if len(all) != 3 {
		t.Fatalf("LookupTopK with large k returned %d", len(all))
	}
}

func TestLookupThresholdOne(t *testing.T) {
	// tau = 1 excludes trees sharing no pq-gram; tau > 1 includes them.
	f := buildForest(t, map[string]*tree.Tree{
		"near": tree.MustParse("a(b c)"),
		"far":  tree.MustParse("q(w e)"),
	})
	q := tree.MustParse("a(b c)")
	if got := f.Lookup(q, 1.0); len(got) != 1 || got[0].TreeID != "near" {
		t.Fatalf("tau=1: %+v", got)
	}
	if got := f.Lookup(q, 1.01); len(got) != 2 {
		t.Fatalf("tau>1: %+v", got)
	}
}

func TestUpdateMaintainsForest(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	base := gen.XMark(3, 200)
	f := forest.New(p33)
	doc := base.Clone()
	if err := f.Add("doc", doc); err != nil {
		t.Fatal(err)
	}
	other := gen.XMark(4, 150)
	if err := f.Add("other", other); err != nil {
		t.Fatal(err)
	}

	// Edit the document several times, updating incrementally.
	for round := 0; round < 5; round++ {
		_, log, err := gen.RandomScript(rng, doc, 1+rng.Intn(10), gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Update("doc", doc, log); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// The maintained per-tree bag must equal a rebuild.
		if !f.TreeIndex("doc").Equal(profile.BuildIndex(doc, p33)) {
			t.Fatalf("round %d: maintained bag differs from rebuild", round)
		}
		// Postings must be consistent: lookup of the current document
		// returns itself at distance 0.
		top := f.LookupTopK(doc, 1)
		if len(top) != 1 || top[0].TreeID != "doc" || top[0].Distance != 0 {
			t.Fatalf("round %d: lookup after update = %+v", round, top)
		}
	}
}

func TestUpdateUnknownTree(t *testing.T) {
	f := forest.New(p33)
	if _, err := f.Update("nope", tree.MustParse("a"), nil); err == nil {
		t.Fatal("update of unknown tree succeeded")
	}
}

func TestUpdateBadLogErrors(t *testing.T) {
	f := forest.New(p33)
	tr := tree.MustParse("a(b c)")
	if err := f.Add("doc", tr); err != nil {
		t.Fatal(err)
	}
	// A log that does not belong to the tree must error and leave the
	// per-tree bag untouched.
	bad := edit.Log{edit.Ins(99, "z", 88, 1, 0)}
	if _, err := f.Update("doc", tr, bad); err == nil {
		t.Fatal("bad log did not error")
	}
	if !f.TreeIndex("doc").Equal(profile.BuildIndex(tr, p33)) {
		t.Fatal("failed update corrupted the bag")
	}
}

func TestEmptyForestLookup(t *testing.T) {
	f := forest.New(p33)
	if got := f.Lookup(tree.MustParse("a"), 0.5); len(got) != 0 {
		t.Fatalf("lookup on empty forest = %v", got)
	}
	if got := f.LookupTopK(tree.MustParse("a"), 3); len(got) != 0 {
		t.Fatalf("top on empty forest = %v", got)
	}
}

func TestSizeAccounting(t *testing.T) {
	f := forest.New(p33)
	a := tree.MustParse("a(b c)")
	b := tree.MustParse("x(y)")
	f.Add("a", a)
	f.Add("b", b)
	want := profile.Count(a, p33) + profile.Count(b, p33)
	if f.Size() != want {
		t.Fatalf("Size = %d, want %d", f.Size(), want)
	}
}

// TestSimilarityJoinMatchesBruteForce holds the join to pairwise bag
// distances on a cluster of perturbed copies plus an outlier.
func TestSimilarityJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	trees := make(map[string]*tree.Tree)
	base := gen.XMark(21, 120)
	for i := 0; i < 10; i++ {
		p, _, err := gen.Perturb(rng, base, 1+rng.Intn(25), gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		trees[fmt.Sprintf("d%02d", i)] = p
	}
	trees["far"] = gen.DBLP(5, 100)
	f := buildForest(t, trees)

	for _, tau := range []float64{0.05, 0.3, 0.8, 1.0, 1.5} {
		got := checkJoin(t, f, tau, "perturbed cluster")
		if tau == 0.8 && len(got) == 0 {
			t.Fatal("join fixture produced no pairs at tau=0.8")
		}
	}
}

// TestApplyDeltasRejectsForeignDelta: a delta whose I⁻ the bag does not
// contain — one tuple removed once more often than the bag holds it, as a
// log of another document produces — fails before commit runs and changes
// nothing: the bag, its cached size, the postings, the epoch and a
// lookup's answer stay as they were. So does a delta whose commit fails,
// and the commit's error comes back under errors.Is. Inside commit every
// reader still sees the pre-update state, and a successful commit runs
// exactly once.
func TestApplyDeltasRejectsForeignDelta(t *testing.T) {
	xt := tree.MustParse("a(b c(d e) b)")
	f := buildForest(t, map[string]*tree.Tree{"x": xt, "y": tree.MustParse("a(b c)")})
	q := profile.BuildIndex(xt, p33)
	bag := f.TreeIndex("x")
	size, distinct, _ := f.TreeStats("x")
	epoch := f.Epoch()
	answer := f.LookupIndex(q, 1)
	if len(answer) == 0 {
		t.Fatal("fixture: the lookup matches nothing")
	}
	unchanged := func(what string) {
		t.Helper()
		if got := f.TreeIndex("x"); !got.Equal(bag) {
			t.Fatalf("bag changed by %s: %v, want %v", what, got, bag)
		}
		if s, d, _ := f.TreeStats("x"); s != size || d != distinct {
			t.Fatalf("TreeStats = (%d, %d) after %s, want (%d, %d)", s, d, what, size, distinct)
		}
		if err := f.SelfCheck(); err != nil {
			t.Fatalf("%s left the index inconsistent: %v", what, err)
		}
		if got := f.Epoch(); got != epoch {
			t.Fatalf("epoch %d after %s, want %d", got, what, epoch)
		}
		if got := f.LookupIndex(q, 1); !reflect.DeepEqual(got, answer) {
			t.Fatalf("lookup after %s = %v, want %v", what, got, answer)
		}
	}
	commits := 0
	countCommit := func() error { commits++; return nil }

	plus := profile.BuildIndex(tree.MustParse("z(y)"), p33)
	foreign := bag.Clone()
	minus := profile.Index{}
	for lt := range foreign {
		foreign[lt]++
		minus[lt] = 1
		break
	}
	if err := f.ApplyDeltas("x", plus, foreign, countCommit); err == nil {
		t.Fatal("over-subtracting delta applied")
	}
	if commits != 0 {
		t.Fatalf("a foreign delta ran commit %d times", commits)
	}
	unchanged("a rejected delta")

	errJournal := errors.New("journal append failed")
	if err := f.ApplyDeltas("x", plus, minus, func() error { return errJournal }); !errors.Is(err, errJournal) {
		t.Fatalf("failed commit returned %v, want %v", err, errJournal)
	}
	unchanged("a failed commit")

	// Nothing else mutates the forest here, so the reads inside commit
	// cannot queue behind a writer.
	err := f.ApplyDeltas("x", plus, minus, func() error {
		if got := f.Epoch(); got != epoch {
			t.Errorf("epoch inside commit = %d, want %d", got, epoch)
		}
		if got := f.LookupIndex(q, 1); !reflect.DeepEqual(got, answer) {
			t.Errorf("lookup inside commit = %v, want the pre-update %v", got, answer)
		}
		return countCommit()
	})
	if err != nil || commits != 1 {
		t.Fatalf("ApplyDeltas = %v with %d commits, want nil and 1", err, commits)
	}
	want := bag.Clone()
	if err := core.ApplyDeltas(want, plus, minus); err != nil {
		t.Fatal(err)
	}
	if got := f.TreeIndex("x"); !got.Equal(want) {
		t.Fatalf("bag after a committed delta = %v, want %v", got, want)
	}
	if f.Epoch() == epoch || reflect.DeepEqual(f.LookupIndex(q, 1), answer) {
		t.Fatal("a committed delta changed neither the epoch nor the lookup's answer")
	}
	if err := f.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarityJoinEmptyAndSingle(t *testing.T) {
	f := forest.New(p33)
	if got := f.SimilarityJoin(0.5, 0); len(got) != 0 {
		t.Fatal("join on empty forest")
	}
	f.Add("only", tree.MustParse("a(b)"))
	if got := f.SimilarityJoin(0.5, 0); len(got) != 0 {
		t.Fatal("join with one tree")
	}
}

func TestSelfCheckDetectsCorruption(t *testing.T) {
	f := buildForest(t, map[string]*tree.Tree{
		"x": tree.MustParse("a(b c)"),
		"y": tree.MustParse("a(b d)"),
	})
	if err := f.SelfCheck(); err != nil {
		t.Fatalf("fresh forest fails self check: %v", err)
	}
	// Corrupt a per-tree bag behind the postings' back (test-only hook;
	// the public API hands out copies).
	forest.CorruptBagForTest(f, "x")
	if err := f.SelfCheck(); err == nil {
		t.Fatal("corruption not detected")
	}
	// One case per registry and posting-list invariant, each on a fresh
	// forest with two resident trees sharing tuples, an evicted tree and
	// the highest doc number free.
	for name, corrupt := range forest.CorruptionsForTest {
		f := buildForest(t, map[string]*tree.Tree{
			"x": tree.MustParse("a(b c)"),
			"y": tree.MustParse("a(b d)"),
		})
		ft := newFakeTier()
		f.SetTier(ft)
		for _, id := range []string{"z", "w"} {
			if err := f.Add(id, tree.MustParse("a(e)")); err != nil {
				t.Fatal(err)
			}
		}
		ft.bags["z"] = f.TreeIndex("z")
		if err := f.Evict([]string{"z"}, ft.learn("z")); err != nil {
			t.Fatal(err)
		}
		if err := f.Remove("w"); err != nil {
			t.Fatal(err)
		}
		if err := f.SelfCheck(); err != nil {
			t.Fatalf("%s: forest fails self check before the corruption: %v", name, err)
		}
		corrupt(f)
		if err := f.SelfCheck(); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

// TestTreeIndexReturnsCopy: the bag handed out by TreeIndex is the
// caller's; mutating it must not corrupt the forest (this was a real
// aliasing bug — the internal map used to escape).
func TestTreeIndexReturnsCopy(t *testing.T) {
	tr := tree.MustParse("a(b c(d) e)")
	f := buildForest(t, map[string]*tree.Tree{"x": tr, "y": tree.MustParse("a(b)")})
	idx := f.TreeIndex("x")
	for lt := range idx {
		idx[lt] += 7
	}
	idx[profile.TupleOfLabels("*", "*", "zzz", "*", "*", "*")] = 3
	if err := f.SelfCheck(); err != nil {
		t.Fatalf("mutating the returned bag corrupted the forest: %v", err)
	}
	if !f.TreeIndex("x").Equal(profile.BuildIndex(tr, p33)) {
		t.Fatal("forest bag changed through the returned copy")
	}
	if f.TreeIndex("nope") != nil {
		t.Fatal("unknown id should return nil")
	}
	size, distinct, ok := f.TreeStats("x")
	if !ok || size != profile.Count(tr, p33) || distinct == 0 {
		t.Fatalf("TreeStats = (%d, %d, %v)", size, distinct, ok)
	}
}

// TestMetamorphicForestOps: a random sequence of add/remove/update keeps
// the index internally consistent and lookups exact.
func TestMetamorphicForestOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := forest.New(p33)
	live := make(map[string]*tree.Tree)
	for step := 0; step < 120; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(live) == 0: // add
			id := fmt.Sprintf("doc-%03d", step)
			d := gen.RandomTree(rng, 5+rng.Intn(60))
			if err := f.Add(id, d); err != nil {
				t.Fatal(err)
			}
			live[id] = d
		case op == 1: // remove
			for id := range live {
				if err := f.Remove(id); err != nil {
					t.Fatal(err)
				}
				delete(live, id)
				break
			}
		default: // incremental update
			for id, d := range live {
				_, log, err := gen.RandomScript(rng, d, 1+rng.Intn(8), gen.DefaultMix)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Update(id, d, log); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		if step%20 == 19 {
			if err := f.SelfCheck(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for id, d := range live {
				if !f.TreeIndex(id).Equal(profile.BuildIndex(d, p33)) {
					t.Fatalf("step %d: bag of %s diverged", step, id)
				}
			}
		}
	}
	if err := f.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	if f.Len() != len(live) {
		t.Fatalf("forest has %d trees, want %d", f.Len(), len(live))
	}
}

// TestIndexMethodSet pins the exported surface of *forest.Index, which the
// root package re-exports as pqgram.Forest: one method per question a
// caller asks. A new method means editing this list on purpose.
func TestIndexMethodSet(t *testing.T) {
	want := []string{
		"Add", "AddAll", "AddEvicted", "AddIndex", "AddIndexes", "ApplyDeltas", "Bag", "Changed",
		"Epoch", "Evict", "ExplainLookup", "ExplainTopK", "ForEachTree", "Has",
		"IDs", "Len", "Lookup", "LookupIndex", "LookupIndexTopK", "LookupTopK",
		"MetricReady", "Params", "Promote", "Put", "Remove", "RemoveSwap",
		"SelfCheck", "SetCollector", "SetTier", "SimilarityJoin", "Size",
		"TreeIndex", "TreeStats", "Update",
	}
	typ := reflect.TypeOf((*forest.Index)(nil))
	got := make([]string, typ.NumMethod())
	for i := range got {
		got[i] = typ.Method(i).Name
	}
	if !slices.Equal(got, want) {
		t.Fatalf("*forest.Index exports %d methods, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
}

// TestHeapPerGram pins what the resident index costs: an in-memory forest
// loaded with a generated corpus shaped like the service benchmark's —
// clusters of eight near-duplicates (up to eight edits apart) of 64- to
// 512-node documents — keeps at most 25 heap bytes per pq-gram, bags,
// postings and registry together. Per-document bag maps took 37.7; the
// frozen bags take 12 bytes per distinct tuple.
func TestHeapPerGram(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var docs []*tree.Tree
	for c := 0; c < 64; c++ {
		base := gen.XMark(int64(c+1), int(64*math.Pow(8, (float64(c)+0.5)/64)))
		docs = append(docs, base)
		for m := 1; m < 8; m++ {
			d, _, err := gen.Perturb(rng, base, 1+rng.Intn(8), gen.DefaultMix)
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, d)
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f := forest.New(p33)
	for i, d := range docs {
		f.Put(fmt.Sprintf("doc-%05d", i), d)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grams := f.Size()
	runtime.KeepAlive(docs) // allocated before the first reading
	runtime.KeepAlive(f)
	perGram := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(grams)
	t.Logf("%d documents, %d grams: %.1f heap bytes per gram", len(docs), grams, perGram)
	if perGram > 25 {
		t.Fatalf("the forest keeps %.1f heap bytes per gram, bound 25", perGram)
	}
}

// TestOverlayFolds drives small edit logs through one document until its
// bag overlay has been folded into a new frozen base several times. After
// every update the bag must equal a rebuild of the edited document, and
// its distinct count the rebuild's; SelfCheck must hold at the end.
func TestOverlayFolds(t *testing.T) {
	doc := gen.XMark(11, 400)
	f := forest.New(p33)
	if err := f.Add("doc", doc); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	folds, prev := 0, 0
	for i := 0; i < 80; i++ {
		_, log, err := gen.RandomScript(rng, doc, 3, gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Update("doc", doc, log); err != nil {
			t.Fatal(err)
		}
		// Only a fold shrinks the overlay.
		n := forest.OverlayForTest(f, "doc")
		if n < prev {
			folds++
		}
		prev = n
		want := profile.BuildIndex(doc, p33)
		if !f.TreeIndex("doc").Equal(want) {
			t.Fatalf("update %d (overlay %d tuples): bag differs from the rebuild", i, n)
		}
		if bag, ok := f.Bag("doc"); !ok || !bag.Equal(profile.Freeze(want)) {
			t.Fatalf("update %d (overlay %d tuples): Bag differs from the rebuild", i, n)
		}
		if size, distinct, _ := f.TreeStats("doc"); size != want.Size() || distinct != want.Distinct() {
			t.Fatalf("update %d: TreeStats (%d, %d), rebuild (%d, %d)", i, size, distinct, want.Size(), want.Distinct())
		}
	}
	if folds < 2 {
		t.Fatalf("the overlay folded %d times in 80 updates, want at least 2", folds)
	}
	if err := f.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}
