package forest_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/gen"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// fakeTier serves evicted bags straight from a map — the minimal Tier a
// segmented store stands in for. Tests put and delete bags directly; the
// doc numbers come from Evict's swap callback (learn) or AddEvicted. Every
// lookup sees the bags dealt round-robin over fakeRuns runs, each with a
// dead copy of its first document, so the run-at-a-time planning, the
// liveness table and filter false positives are all exercised.
type fakeTier struct {
	bags map[string]profile.Index
	docs map[string]uint32
}

const fakeRuns = 3

func newFakeTier() *fakeTier {
	return &fakeTier{bags: make(map[string]profile.Index), docs: make(map[string]uint32)}
}

// learn returns the Evict swap callback recording the doc numbers of ids.
func (ft *fakeTier) learn(ids ...string) func([]uint32) {
	return func(docs []uint32) {
		for i, id := range ids {
			ft.docs[id] = docs[i]
		}
	}
}

// fakeRun is one run of a fakeTier: posting lists over its own refs.
type fakeRun struct {
	docs []uint32
	post map[profile.LabelTuple][]forest.RunPosting
}

func (r *fakeRun) add(doc uint32, bag profile.Index) {
	ref := int32(len(r.docs))
	r.docs = append(r.docs, doc)
	for lt, c := range bag {
		r.post[lt] = append(r.post[lt], forest.RunPosting{Ref: ref, Cnt: uint32(c)})
	}
}

func (r *fakeRun) Docs() []uint32 { return r.docs }

// MayContain is exact except for a deliberate false positive on every
// eighth hash.
func (r *fakeRun) MayContain(h1, _ uint64) bool {
	_, ok := r.post[profile.LabelTuple(h1)]
	return ok || h1%8 == 0
}

func (r *fakeRun) Postings(lt profile.LabelTuple) []forest.RunPosting { return r.post[lt] }

func (ft *fakeTier) FilterHash(lt profile.LabelTuple) (h1, h2 uint64) { return uint64(lt), 0 }

func (ft *fakeTier) AppendRuns(runs []forest.Run) []forest.Run {
	ids := make([]string, 0, len(ft.bags))
	for id := range ft.bags {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	first := len(runs)
	for i, id := range ids {
		if i < fakeRuns {
			run := &fakeRun{post: make(map[profile.LabelTuple][]forest.RunPosting)}
			run.add(forest.NoDoc, ft.bags[id])
			runs = append(runs, run)
		}
		doc, ok := ft.docs[id]
		if !ok {
			panic("fakeTier: bag of " + id + " put without its doc number")
		}
		runs[first+i%fakeRuns].(*fakeRun).add(doc, ft.bags[id])
	}
	return runs
}

func (ft *fakeTier) Bag(id string) (profile.Bag, bool) {
	bag, ok := ft.bags[id]
	if !ok {
		return profile.Bag{}, false
	}
	return profile.Freeze(bag), true
}

// tieredCopy builds the same document set twice: once all-resident, once
// with every even-numbered document evicted into a fakeTier. The two
// forests must answer every query identically.
func tieredCopy(t *testing.T, docs []*tree.Tree) (resident, tiered *forest.Index, ft *fakeTier, evicted []string) {
	t.Helper()
	resident = forest.New(p33)
	tiered = forest.New(p33)
	ft = newFakeTier()
	tiered.SetTier(ft)
	for i, d := range docs {
		id := fmt.Sprintf("doc%03d", i)
		if err := resident.Add(id, d); err != nil {
			t.Fatal(err)
		}
		if err := tiered.Add(id, d); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			ft.bags[id] = tiered.TreeIndex(id)
			evicted = append(evicted, id)
		}
	}
	if err := tiered.Evict(evicted, ft.learn(evicted...)); err != nil {
		t.Fatal(err)
	}
	return resident, tiered, ft, evicted
}

// allEvictedCopy indexes the documents under tieredCopy's IDs in a forest
// that registers every one as evicted into a fakeTier, never resident.
func allEvictedCopy(t *testing.T, docs []*tree.Tree) *forest.Index {
	t.Helper()
	f := forest.New(p33)
	ft := newFakeTier()
	f.SetTier(ft)
	for i, d := range docs {
		id := fmt.Sprintf("doc%03d", i)
		ft.bags[id] = profile.BuildIndex(d, p33)
		var err error
		if ft.docs[id], err = f.AddEvicted(id, ft.bags[id].Size(), len(ft.bags[id])); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func matchesEqual(a, b []forest.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func pairsEqual(a, b []forest.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTierLookupDifferential holds the tier-merged lookup — the planned
// run read for 0 < τ ≤ 1, the τ>1 scan-all branch, and the empty query —
// to the brute-force reference and byte-identical to the all-in-RAM
// forest. τ = 1 is where the bounds admit every overlapping document.
func TestTierLookupDifferential(t *testing.T) {
	docs := gen.XMarkForest(7, 48, 4800)
	resident, tiered, _, _ := tieredCopy(t, docs)
	queries := []profile.Index{{}, profile.BuildIndex(tree.MustParse("a(b c)"), p33)}
	for _, i := range []int{0, 1, 7, 20} {
		queries = append(queries, profile.BuildIndex(docs[i], p33))
	}
	for qi, q := range queries {
		for _, tau := range []float64{0.2, 0.55, 1, 1.5} {
			want := checkLookup(t, resident, q, tau, fmt.Sprintf("resident query %d", qi))
			if got := tiered.LookupIndex(q, tau); !matchesEqual(want, got) {
				t.Fatalf("query %d tau %v: tiered %v, resident %v", qi, tau, got, want)
			}
		}
	}
}

// TestTierTopKDifferential covers the top-k accumulation over a tier —
// half the documents evicted, then all of them, registered without ever
// being resident.
func TestTierTopKDifferential(t *testing.T) {
	docs := gen.XMarkForest(11, 32, 3200)
	resident, tiered, _, _ := tieredCopy(t, docs)
	allEvicted := allEvictedCopy(t, docs)
	for _, query := range []*tree.Tree{docs[3], tree.MustParse("p(q r)")} {
		for _, k := range []int{1, 5, 100} {
			want := resident.LookupTopK(query, k)
			if got := tiered.LookupTopK(query, k); !matchesEqual(want, got) {
				t.Fatalf("k=%d: tiered %v, resident %v", k, got, want)
			}
			if got := allEvicted.LookupTopK(query, k); !matchesEqual(want, got) {
				t.Fatalf("k=%d: all-evicted %v, resident %v", k, got, want)
			}
		}
	}
	if err := tiered.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	// Top-k queries leave nothing behind that needs a bag at insert time:
	// registering another evicted document still works.
	if _, err := tiered.AddEvicted("late", 10, 5); err != nil {
		t.Fatalf("AddEvicted after top-k queries: %v", err)
	}
}

// TestTierJoinDifferential holds the join — one lookup per document —
// byte-identical over a half-evicted and an all-evicted forest to the
// all-in-RAM one, which equals the brute-force reference: resident and
// evicted bags alike are the queries, and the τ>1 threshold takes the
// scan-all plan.
func TestTierJoinDifferential(t *testing.T) {
	docs := gen.XMarkForest(13, 28, 2400)
	resident, tiered, _, _ := tieredCopy(t, docs)
	allEvicted := allEvictedCopy(t, docs)
	for _, tau := range []float64{0.4, 0.7, 1.5} {
		want := checkJoin(t, resident, tau, "resident")
		if got := tiered.SimilarityJoin(tau, 0); !pairsEqual(want, got) {
			t.Fatalf("tau %v: tiered join %v, resident %v", tau, got, want)
		}
		if got := allEvicted.SimilarityJoin(tau, 0); !pairsEqual(want, got) {
			t.Fatalf("tau %v: all-evicted join %v, resident %v", tau, got, want)
		}
	}
}

// TestTierAccessors covers the evicted-document read paths that fetch
// bags through the tier one document at a time.
func TestTierAccessors(t *testing.T) {
	docs := gen.XMarkForest(17, 10, 900)
	resident, tiered, _, evicted := tieredCopy(t, docs)
	ev := evicted[0]
	if tiered.Len() != resident.Len() || tiered.Size() != resident.Size() {
		t.Fatal("Len/Size changed by eviction")
	}

	// TreeIndex, Bag and TreeStats on an evicted document.
	if got, want := tiered.TreeIndex(ev), resident.TreeIndex(ev); !got.Equal(want) {
		t.Fatalf("TreeIndex(%q) differs through the tier", ev)
	}
	got, ok := tiered.Bag(ev)
	if want, _ := resident.Bag(ev); !ok || !got.Equal(want) {
		t.Fatalf("Bag(%q) differs through the tier", ev)
	}
	if _, ok := tiered.Bag("no-such-doc"); ok {
		t.Fatal("Bag of an unknown id reported ok")
	}
	size, distinct, ok := tiered.TreeStats(ev)
	wsize, wdistinct, _ := resident.TreeStats(ev)
	if !ok || size != wsize || distinct != wdistinct {
		t.Fatalf("TreeStats(%q) = (%d, %d, %v), want (%d, %d, true)", ev, size, distinct, ok, wsize, wdistinct)
	}

	// ForEachTree traverses evicted documents through the tier.
	seen := make(map[string]int)
	if err := tiered.ForEachTree(func(id string, bag profile.Bag) error {
		seen[id] = bag.Size()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != resident.Len() || seen[ev] != wsize {
		t.Fatalf("ForEachTree saw %d trees, %q with size %d", len(seen), ev, seen[ev])
	}

	// SelfCheck validates the cached size/distinct against the tier bag.
	if err := tiered.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestTierEvictPromote covers the eviction/promotion error paths, the
// swap callbacks, and that a promoted document answers like it never left.
func TestTierEvictPromote(t *testing.T) {
	docs := gen.XMarkForest(19, 6, 600)
	resident, tiered, ft, _ := tieredCopy(t, docs)

	if err := tiered.Evict([]string{"nope"}, nil); err == nil || !strings.Contains(err.Error(), "not indexed") {
		t.Fatalf("evicting unknown: %v", err)
	}
	if err := tiered.Evict([]string{"doc000"}, nil); err == nil || !strings.Contains(err.Error(), "already evicted") {
		t.Fatalf("double evict: %v", err)
	}
	if err := tiered.Promote("nope", profile.Bag{}, nil); err == nil || !strings.Contains(err.Error(), "not indexed") {
		t.Fatalf("promoting unknown: %v", err)
	}
	if err := tiered.Promote("doc001", profile.Bag{}, nil); err == nil || !strings.Contains(err.Error(), "already resident") {
		t.Fatalf("promoting resident: %v", err)
	}

	// Promote doc000 back; the swap callback drops the tier copy under
	// the same lock, like the store does.
	epoch := tiered.Epoch()
	swapped := false
	bag := ft.bags["doc000"]
	if err := tiered.Promote("doc000", profile.Freeze(bag), func() {
		swapped = true
		delete(ft.bags, "doc000")
	}); err != nil {
		t.Fatal(err)
	}
	if !swapped {
		t.Fatal("promote swap callback did not run")
	}
	if forest.EvictedForTest(tiered, "doc000") {
		t.Fatal("doc000 still evicted after promotion")
	}
	if tiered.Epoch() != epoch {
		t.Fatal("promotion advanced the epoch")
	}

	// And evict it again with a swap callback, round-tripping the bag.
	swapped = false
	if err := tiered.Evict([]string{"doc000"}, func(docs []uint32) {
		swapped = true
		ft.bags["doc000"] = bag
		ft.learn("doc000")(docs)
	}); err != nil {
		t.Fatal(err)
	}
	if !swapped {
		t.Fatal("evict swap callback did not run")
	}
	if tiered.Epoch() != epoch {
		t.Fatal("eviction advanced the epoch")
	}
	for _, tau := range []float64{0.5, 1.5} {
		if want, got := resident.Lookup(docs[0], tau), tiered.Lookup(docs[0], tau); !matchesEqual(want, got) {
			t.Fatalf("tau %v after promote/evict round trip: %v, want %v", tau, got, want)
		}
	}
	if err := tiered.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestTierAddEvicted covers registering documents that were never
// resident — the segmented store's open path.
func TestTierAddEvicted(t *testing.T) {
	docs := gen.XMarkForest(23, 8, 800)
	resident := forest.New(p33)
	tiered := forest.New(p33)
	ft := newFakeTier()
	tiered.SetTier(ft)
	for i, d := range docs {
		id := fmt.Sprintf("doc%03d", i)
		if err := resident.Add(id, d); err != nil {
			t.Fatal(err)
		}
		bag := profile.BuildIndex(d, p33)
		ft.bags[id] = bag
		epoch := tiered.Epoch()
		var err error
		if ft.docs[id], err = tiered.AddEvicted(id, bag.Size(), len(bag)); err != nil {
			t.Fatal(err)
		}
		if tiered.Epoch() == epoch {
			t.Fatal("AddEvicted did not advance the epoch")
		}
	}
	if _, err := tiered.AddEvicted("doc000", 1, 1); err == nil || !strings.Contains(err.Error(), "already indexed") {
		t.Fatalf("duplicate AddEvicted: %v", err)
	}
	if tiered.Len() != resident.Len() || tiered.Size() != resident.Size() {
		t.Fatal("Len/Size wrong after AddEvicted")
	}
	for _, id := range tiered.IDs() {
		if !forest.EvictedForTest(tiered, id) {
			t.Fatalf("%s resident in a forest built by AddEvicted", id)
		}
	}
	for _, tau := range []float64{0.3, 0.8} {
		if want, got := resident.Lookup(docs[2], tau), tiered.Lookup(docs[2], tau); !matchesEqual(want, got) {
			t.Fatalf("tau %v: %v, want %v", tau, got, want)
		}
	}
	if err := tiered.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestTierDetachedErrors covers the two tier-inconsistency failures:
// an evicted document with no tier attached, and a tier that does not
// hold the document it is supposed to serve.
func TestTierDetachedErrors(t *testing.T) {
	docs := gen.XMarkForest(29, 4, 400)
	_, tiered, ft, evicted := tieredCopy(t, docs)
	ev := evicted[0]

	delete(ft.bags, ev)
	if err := tiered.ForEachTree(func(string, profile.Bag) error { return nil }); err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Fatalf("ForEachTree with a hole in the tier: %v", err)
	}

	tiered.SetTier(nil)
	if got := tiered.TreeIndex(evicted[1]); got != nil {
		t.Fatalf("TreeIndex with no tier = %v, want nil", got)
	}
	if err := tiered.ForEachTree(func(string, profile.Bag) error { return nil }); err == nil || !strings.Contains(err.Error(), "no tier is attached") {
		t.Fatalf("ForEachTree with no tier: %v", err)
	}
	if err := tiered.SelfCheck(); err == nil {
		t.Fatal("SelfCheck with no tier succeeded")
	}
	// Lookups do not error without a tier: the τ>1 scan-all path scores
	// every registered document from its cached size (overlap 0 for the
	// now-unreachable evicted bags), so nothing is silently dropped.
	if got := tiered.Lookup(docs[1], 1.5); len(got) != tiered.Len() {
		t.Fatalf("detached lookup returned %d matches, want %d", len(got), tiered.Len())
	}
}

// TestTierCounters verifies the tier read's work lands on the
// forest_bloom_* and forest_tier_* counters when a collector is attached,
// from the run-at-a-time planning of a threshold lookup and from the
// whole-run accumulation of top-k.
func TestTierCounters(t *testing.T) {
	docs := gen.XMarkForest(31, 12, 1200)
	_, tiered, _, _ := tieredCopy(t, docs)
	col := obs.NewCollector()
	tiered.SetCollector(col)
	for name, lookup := range map[string]func() []forest.Match{
		"lookup": func() []forest.Match { return tiered.Lookup(docs[0], 0.8) },
		"top-k":  func() []forest.Match { return tiered.LookupTopK(docs[0], 3) },
	} {
		before := col.Snapshot()
		if got := lookup(); len(got) == 0 {
			t.Fatalf("%s over the tier found nothing", name)
		}
		deltas := col.Snapshot().CounterDeltas(before)
		for _, counter := range []string{"forest_tier_segments_probed", "forest_bloom_checks", "forest_bloom_skips", "forest_tier_postings_scanned"} {
			if deltas[counter] == 0 {
				t.Errorf("%s: %s not incremented", name, counter)
			}
		}
	}
}

// TestEvictRandomSubsets evicts random subsets of the resident documents
// in rounds, promoting some back in between, so one Evict often takes
// documents that share posting lists with each other and with documents
// that stay. After every step the forest passes SelfCheck and answers as
// an all-resident copy does.
func TestEvictRandomSubsets(t *testing.T) {
	docs := gen.XMarkForest(23, 40, 2400)
	resident, tiered, ft := forest.New(p33), forest.New(p33), newFakeTier()
	tiered.SetTier(ft)
	ids := make([]string, len(docs))
	for i, d := range docs {
		ids[i] = fmt.Sprintf("doc%03d", i)
		if err := resident.Add(ids[i], d); err != nil {
			t.Fatal(err)
		}
		if err := tiered.Add(ids[i], d); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string) {
		t.Helper()
		if err := tiered.SelfCheck(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		for _, qi := range []int{0, 7, 21} {
			for _, tau := range []float64{0.3, 0.7} {
				if want, got := resident.Lookup(docs[qi], tau), tiered.Lookup(docs[qi], tau); !matchesEqual(want, got) {
					t.Fatalf("%s: query %d at tau %v: %v, want %v", step, qi, tau, got, want)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 10; round++ {
		var evict []string
		for _, id := range ids {
			if !forest.EvictedForTest(tiered, id) && rng.Intn(3) == 0 {
				ft.bags[id] = tiered.TreeIndex(id)
				evict = append(evict, id)
			}
		}
		if err := tiered.Evict(evict, ft.learn(evict...)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("round %d: evicted %d", round, len(evict)))
		for _, id := range ids {
			if forest.EvictedForTest(tiered, id) && rng.Intn(4) == 0 {
				bag := ft.bags[id]
				if err := tiered.Promote(id, profile.Freeze(bag), func() { delete(ft.bags, id) }); err != nil {
					t.Fatal(err)
				}
			}
		}
		check(fmt.Sprintf("round %d: promoted", round))
	}
}
