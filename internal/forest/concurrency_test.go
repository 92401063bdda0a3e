package forest_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/gen"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/store"
	"pqgram/internal/tree"
)

// TestForestConcurrentMix is the race-detector stress test: concurrent
// readers (Lookup, LookupTopK, Distance, IDs, TreeIndex, Size) against
// concurrent writers (Add, Remove, Update, Put) over XMark-shaped trees.
// Each writer owns a disjoint set of documents, mirroring the serving
// contract that updates to one document form a single coherent sequence.
// Run under -race; afterwards SelfCheck must pass and every maintained bag
// must equal a rebuild of its final document.
func TestForestConcurrentMix(t *testing.T) {
	const (
		nDocs     = 12
		writers   = 4
		readers   = 4
		writerIts = 40
		readerIts = 150
	)
	f := forest.New(p33)
	docs := make([]*tree.Tree, nDocs)
	ids := make([]string, nDocs)
	for i := range docs {
		docs[i] = gen.XMark(int64(i+1), 80)
		ids[i] = fmt.Sprintf("doc-%02d", i)
		if err := f.Add(ids[i], docs[i]); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers*writerIts)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for it := 0; it < writerIts; it++ {
				i := w + writers*rng.Intn(nDocs/writers) // own partition only
				switch rng.Intn(4) {
				case 0, 1: // incremental update
					_, log, err := gen.RandomScript(rng, docs[i], 1+rng.Intn(5), gen.DefaultMix)
					if err != nil {
						errs <- err
						return
					}
					if _, err := f.Update(ids[i], docs[i], log); err != nil {
						errs <- fmt.Errorf("update %s: %w", ids[i], err)
						return
					}
				case 2: // drop and re-add
					if err := f.Remove(ids[i]); err != nil {
						errs <- err
						return
					}
					if err := f.Add(ids[i], docs[i]); err != nil {
						errs <- err
						return
					}
				default: // atomic replace
					f.Put(ids[i], docs[i])
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + r)))
			query := gen.XMark(int64(50+r), 60)
			for it := 0; it < readerIts; it++ {
				switch it % 6 {
				case 0:
					f.Lookup(query, 0.9)
				case 1:
					f.LookupTopK(query, 3)
				case 2:
					// A concurrently removed tree is a legal miss.
					f.TreeStats(ids[rng.Intn(nDocs)])
				case 3:
					if got := f.IDs(); len(got) > nDocs {
						errs <- fmt.Errorf("IDs grew to %d", len(got))
						return
					}
				case 4:
					f.TreeIndex(ids[rng.Intn(nDocs)])
				default:
					f.Size()
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if err := f.SelfCheck(); err != nil {
		t.Fatalf("SelfCheck after concurrent mix: %v", err)
	}
	for i := range docs {
		if !f.TreeIndex(ids[i]).Equal(profile.BuildIndex(docs[i], p33)) {
			t.Fatalf("bag of %s diverged from its document", ids[i])
		}
	}
}

// TestUpdateEquivalentToRebuild is the differential test of the paper's
// Theorem 1 at the forest layer: for ~200 random edit scripts, the
// incrementally maintained forest must be byte-identical (serialized
// through the store) to a forest that handles every edit by Remove+Add
// rebuild of the edited tree.
func TestUpdateEquivalentToRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	docs := map[string]*tree.Tree{
		"xmark": gen.XMark(1, 110),
		"dblp":  gen.DBLP(2, 90),
		"rand":  gen.RandomTree(rng, 70),
	}
	inc := forest.New(p33)     // maintained via Update
	rebuilt := forest.New(p33) // maintained via Remove+Add
	ids := make([]string, 0, len(docs))
	for id, d := range docs {
		ids = append(ids, id)
		if err := inc.Add(id, d); err != nil {
			t.Fatal(err)
		}
		if err := rebuilt.Add(id, d); err != nil {
			t.Fatal(err)
		}
	}

	saved := func(f *forest.Index) []byte {
		var buf bytes.Buffer
		if err := store.Save(&buf, f); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for round := 0; round < 200; round++ {
		id := ids[round%len(ids)]
		doc := docs[id]
		_, log, err := gen.RandomScript(rng, doc, 1+rng.Intn(6), gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inc.Update(id, doc, log); err != nil {
			t.Fatalf("round %d: update %s: %v", round, id, err)
		}
		if err := rebuilt.Remove(id); err != nil {
			t.Fatal(err)
		}
		if err := rebuilt.Add(id, doc); err != nil {
			t.Fatal(err)
		}
		if !inc.TreeIndex(id).Equal(rebuilt.TreeIndex(id)) {
			t.Fatalf("round %d: maintained bag of %s differs from rebuild", round, id)
		}
		if !bytes.Equal(saved(inc), saved(rebuilt)) {
			t.Fatalf("round %d: serialized forests differ", round)
		}
		if round%25 == 24 {
			if err := inc.SelfCheck(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	if err := inc.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// dblpDocs builds a DBLP-shaped corpus with near-duplicate clusters (the
// seeds repeat) so similarity joins have real results.
func dblpDocs(n int) []forest.Doc {
	docs := make([]forest.Doc, n)
	for i := range docs {
		docs[i] = forest.Doc{
			ID:   fmt.Sprintf("d%03d", i),
			Tree: gen.DBLP(int64(i%40), 50+i%30),
		}
	}
	return docs
}

// TestParallelEquivalence: AddAll and SimilarityJoin at workers=1 versus
// workers=GOMAXPROCS produce identical forests (byte-for-byte through the
// store) and identical sorted join results on a 500-tree DBLP-shaped
// corpus.
func TestParallelEquivalence(t *testing.T) {
	docs := dblpDocs(500)
	wide := runtime.GOMAXPROCS(0)

	f1 := forest.New(p33)
	if err := f1.AddAll(docs, 1); err != nil {
		t.Fatal(err)
	}
	fN := forest.New(p33)
	if err := fN.AddAll(docs, wide); err != nil {
		t.Fatal(err)
	}
	for _, f := range []*forest.Index{f1, fN} {
		if err := f.SelfCheck(); err != nil {
			t.Fatal(err)
		}
	}
	var b1, bN bytes.Buffer
	if err := store.Save(&b1, f1); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(&bN, fN); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), bN.Bytes()) {
		t.Fatal("AddAll workers=1 and workers=N serialized differently")
	}

	for _, tau := range []float64{0.3, 0.6} {
		j1 := f1.SimilarityJoin(tau, 1)
		jN := fN.SimilarityJoin(tau, wide)
		if !reflect.DeepEqual(j1, jN) {
			t.Fatalf("tau=%g: parallel join differs from serial (%d vs %d pairs)", tau, len(j1), len(jN))
		}
		if tau == 0.6 && len(j1) == 0 {
			t.Fatal("join fixture produced no pairs — corpus too sparse to test anything")
		}
	}
}

// TestJoinAllPairsParallelEquivalence covers the tau > 1 degenerate join,
// whose lookups take the scan-all plan and so return every pair: serial,
// parallel and brute force must agree exactly.
func TestJoinAllPairsParallelEquivalence(t *testing.T) {
	docs := dblpDocs(80)
	f := forest.New(p33)
	if err := f.AddAll(docs, 0); err != nil {
		t.Fatal(err)
	}
	j1 := f.SimilarityJoin(1.5, 1)
	jN := f.SimilarityJoin(1.5, runtime.GOMAXPROCS(0))
	if len(j1) != len(docs)*(len(docs)-1)/2 {
		t.Fatalf("all-pairs join returned %d pairs", len(j1))
	}
	if !reflect.DeepEqual(j1, jN) {
		t.Fatal("parallel all-pairs join differs from serial")
	}
	if !reflect.DeepEqual(j1, bruteJoin(t, f, 1.5)) {
		t.Fatal("all-pairs join differs from brute force")
	}
}

// TestAddAllRejectsDuplicates: a batch with an in-batch duplicate or an
// already-indexed ID fails atomically, leaving the forest unchanged.
func TestAddAllRejectsDuplicates(t *testing.T) {
	f := forest.New(p33)
	if err := f.Add("taken", tree.MustParse("a(b)")); err != nil {
		t.Fatal(err)
	}
	batch := []forest.Doc{
		{ID: "x", Tree: tree.MustParse("a(b c)")},
		{ID: "taken", Tree: tree.MustParse("a")},
	}
	if err := f.AddAll(batch, 2); err == nil {
		t.Fatal("batch with indexed ID accepted")
	}
	dup := []forest.Doc{
		{ID: "x", Tree: tree.MustParse("a(b c)")},
		{ID: "x", Tree: tree.MustParse("a")},
	}
	if err := f.AddAll(dup, 2); err == nil {
		t.Fatal("batch with in-batch duplicate accepted")
	}
	if f.Len() != 1 || f.Has("x") {
		t.Fatal("failed batch mutated the forest")
	}
	if err := f.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestPutReplacesAtomically: Put on a taken ID swaps the document and the
// postings follow; Put on a fresh ID adds it.
func TestPutReplacesAtomically(t *testing.T) {
	f := forest.New(p33)
	old := tree.MustParse("a(b c)")
	if n := f.Put("doc", old); n != profile.Count(old, p33) {
		t.Fatalf("Put returned %d grams", n)
	}
	repl := tree.MustParse("x(y z(w))")
	f.Put("doc", repl)
	if f.Len() != 1 {
		t.Fatalf("Len = %d after replace", f.Len())
	}
	if !f.TreeIndex("doc").Equal(profile.BuildIndex(repl, p33)) {
		t.Fatal("Put did not replace the bag")
	}
	if err := f.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	if top := f.LookupTopK(repl, 1); len(top) != 1 || top[0].Distance != 0 {
		t.Fatalf("lookup after Put = %+v", top)
	}
}

// TestTierNumberReuseUnderLookups is the race-detector stress for doc
// numbers recycled out of the storage tier: one writer keeps removing a
// flushed near-duplicate and putting an unrelated document — which
// inherits the freed number — then swaps them back and flushes, while
// readers look the duplicates up. The segment copy of the removed document
// goes dead under the same registry write lock that frees its number, so no
// lookup may ever credit the unrelated document with its postings.
func TestTierNumberReuseUnderLookups(t *testing.T) {
	const dups, rounds, readers = 8, 60, 3
	s, err := store.CreateSegmentedFS(fsio.NewMemFS(), "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := gen.XMark(9, 60)
	stranger := tree.MustParse("k(l(m n) o(p) q)")
	for i := 0; i < dups; i++ {
		if err := s.Add(fmt.Sprintf("dup-%d", i), base); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	f := s.Forest()
	q := profile.BuildIndex(base, p33)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var ms []forest.Match
				if tau := []float64{0, 0.1, 0.6, 1}[(r+i)%4]; tau == 0 {
					ms = f.LookupIndexTopK(q, dups)
				} else {
					ms = f.LookupIndex(q, tau)
				}
				// Every duplicate is at distance 0 and at most one is
				// missing at any time; the stranger shares no tuple.
				if len(ms) < dups-1 {
					t.Errorf("lookup saw %d of %d duplicates: %v", len(ms), dups, ms)
					return
				}
				for _, m := range ms[:dups-1] {
					if m.Distance != 0 || m.TreeID == "stranger" {
						t.Errorf("lookup credited %q with distance %v: %v", m.TreeID, m.Distance, ms)
						return
					}
				}
			}
		}(r)
	}
	write := func() error {
		for round := 0; round < rounds && !t.Failed(); round++ {
			id := fmt.Sprintf("dup-%d", round%dups)
			steps := []func() error{
				func() error { return s.Remove(id) },
				func() error { _, err := s.Put("stranger", stranger); return err },
				func() error { return s.Remove("stranger") },
				func() error { return s.Add(id, base) },
			}
			if round%4 == 3 {
				steps = append(steps, s.Flush)
			}
			for _, step := range steps {
				if err := step(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	err = write()
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestStripeLoadSnapshotDuringPuts takes collector snapshots, whose
// forest_stripe_load value scans every shard map, while Put replaces
// documents. Put writes the shard maps under the registry write lock
// alone, so the scan must hold the registry read lock: under -race this
// test reports the unguarded read, and without it the runtime can die of
// a concurrent map iteration and write.
func TestStripeLoadSnapshotDuringPuts(t *testing.T) {
	f := forest.New(p33)
	col := obs.NewCollector()
	f.SetCollector(col)
	docs := make([]*tree.Tree, 4)
	for i := range docs {
		docs[i] = gen.XMark(int64(i+1), 60)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				col.Snapshot()
			}
		}
	}()
	for i := 0; i < 200; i++ {
		f.Put(fmt.Sprintf("doc-%d", i%8), docs[i%len(docs)])
	}
	close(done)
	wg.Wait()
	st, ok := col.Snapshot().Values["forest_stripe_load"].(forest.StripeLoadStats)
	if !ok || st.Keys == 0 || st.Postings == 0 {
		t.Fatalf("forest_stripe_load after the puts: %+v (present %v)", st, ok)
	}
	if err := f.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}
