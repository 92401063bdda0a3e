// Tests for the mutation epoch — the counter the serving tier's result
// cache keys its entries on. The contract (see Index.Epoch): every
// completed mutation advances the epoch, it is monotone under
// concurrency, and delta applications bump it on both sides of the
// change so a lookup bracketed by an unchanged epoch cannot have raced a
// completed mutation. Changed names the document behind each advance.

package forest_test

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/gen"
	"pqgram/internal/profile"
	"pqgram/internal/tree"

	"math/rand"
)

// TestEpochAdvancesOnEveryMutation pins that each mutating entry point
// moves the epoch and that read-only operations do not.
func TestEpochAdvancesOnEveryMutation(t *testing.T) {
	f := forest.New(p33)
	e0 := f.Epoch()
	if e0 != 0 {
		t.Fatalf("fresh index epoch = %d, want 0", e0)
	}

	step := func(name string, mutate bool, op func() error) {
		t.Helper()
		before := f.Epoch()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := f.Epoch()
		if mutate && after <= before {
			t.Fatalf("%s: epoch %d -> %d, want an advance", name, before, after)
		}
		if !mutate && after != before {
			t.Fatalf("%s: epoch %d -> %d, want unchanged", name, before, after)
		}
	}

	doc := tree.MustParse("a(b(c) d)")
	step("Add", true, func() error { return f.Add("t1", doc) })
	step("Put", true, func() error { f.Put("t2", tree.MustParse("a(x y)")); return nil })
	step("Lookup", false, func() error { f.Lookup(doc, 0.8); return nil })
	step("LookupTopK", false, func() error { f.LookupTopK(doc, 2); return nil })

	// Update through the incremental path (delta application).
	rng := rand.New(rand.NewSource(7))
	working := gen.DBLP(1, 60)
	step("Add working", true, func() error { return f.Add("t3", working) })
	_, log, err := gen.RandomScript(rng, working, 4, gen.DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	before := f.Epoch()
	if _, err := f.Update("t3", working, log); err != nil {
		t.Fatal(err)
	}
	if after := f.Epoch(); after < before+2 {
		t.Fatalf("Update: epoch %d -> %d, want a bump on both sides (>= +2)", before, after)
	}

	step("Remove", true, func() error { return f.Remove("t1") })

	// Failed mutations of unknown trees must not be able to un-advance
	// or freeze the epoch for subsequent real mutations.
	if err := f.Remove("nope"); err == nil {
		t.Fatal("Remove of unknown tree succeeded")
	}
	step("Add after failed remove", true, func() error { return f.Add("t4", doc) })
}

// TestEpochBulkBuild: AddAll advances the epoch at least once per added
// document, so a cache keyed on the pre-build epoch cannot survive it.
func TestEpochBulkBuild(t *testing.T) {
	f := forest.New(p33)
	docs := make([]forest.Doc, 20)
	for i := range docs {
		docs[i] = forest.Doc{ID: fmt.Sprintf("d%02d", i), Tree: gen.DBLP(int64(i), 40)}
	}
	before := f.Epoch()
	if err := f.AddAll(docs, 4); err != nil {
		t.Fatal(err)
	}
	if after := f.Epoch(); after < before+uint64(len(docs)) {
		t.Fatalf("AddAll(%d docs): epoch %d -> %d, want >= +%d", len(docs), before, after, len(docs))
	}
}

// TestEpochSeqlockBracket is the property the serving tier's cache relies
// on: with a writer continuously applying deltas, a reader that observes
// the same epoch before and after copying a document's bag must have seen
// a bag identical to one of the committed states — never a torn one. The
// committed states here alternate a tuple's count between two values, so
// a torn read is detectable.
func TestEpochSeqlockBracket(t *testing.T) {
	f := forest.New(p33)
	base := gen.DBLP(3, 80)
	if err := f.Add("doc", base); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	working := base

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, log, err := gen.RandomScript(rng, working, 3, gen.DefaultMix)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.Update("doc", working, log); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var last uint64
	brackets := 0
	for i := 0; i < 2000; i++ {
		e1 := f.Epoch()
		if e1 < last {
			t.Fatalf("epoch moved backwards: %d after %d", e1, last)
		}
		last = e1
		size, _, ok := f.TreeStats("doc")
		e2 := f.Epoch()
		if !ok {
			t.Fatal("doc vanished")
		}
		if e1 == e2 {
			brackets++
			// An unchanged epoch brackets a quiescent window; the size
			// read inside it must match a re-read that also brackets.
			size2, _, _ := f.TreeStats("doc")
			if e3 := f.Epoch(); e3 == e1 && size2 != size {
				t.Fatalf("two reads under epoch %d disagree: %d vs %d", e1, size, size2)
			}
		}
	}
	close(stop)
	wg.Wait()
	if brackets == 0 {
		t.Log("no quiescent bracket observed (heavily loaded scheduler); monotonicity still verified")
	}
	if err := f.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestChangedNamesEachAdvance pins the records Changed reads: every
// mutator names its document behind each epoch advance it makes, the
// operations that change no content (Evict, Promote) and failed ones
// record nothing, and a range reaching past the records the ring keeps
// reports false.
func TestChangedNamesEachAdvance(t *testing.T) {
	f := forest.New(p33)
	ft := newFakeTier()
	f.SetTier(ft)
	// step runs op and checks that it advanced the epoch once per entry of
	// want, each advance naming that entry's document.
	step := func(name string, op func() error, want ...string) {
		t.Helper()
		e0 := f.Epoch()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e1 := f.Epoch()
		if e1-e0 != uint64(len(want)) {
			t.Fatalf("%s: epoch %d -> %d, want %d advances", name, e0, e1, len(want))
		}
		for i, id := range want {
			e := e0 + uint64(i) + 1
			if got, ok := f.Changed(e-1, e); !ok || !slices.Equal(got, []string{id}) {
				t.Fatalf("%s: advance to %d names %v (ok %v), want [%s]", name, e, got, ok, id)
			}
		}
		distinct := slices.Clone(want)
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		if got, ok := f.Changed(e0, e1); !ok || !slices.Equal(got, distinct) {
			t.Fatalf("%s: Changed(%d, %d) = %v, %v; want %v, true", name, e0, e1, got, ok, distinct)
		}
	}
	fails := func(err error) error {
		if err == nil {
			return errors.New("succeeded")
		}
		return nil
	}
	rng := rand.New(rand.NewSource(7))
	working := gen.DBLP(1, 60)
	small := tree.MustParse("a(b c)")

	step("Add", func() error { return f.Add("a", working) }, "a")
	step("AddIndex", func() error { return f.AddIndex("b", profile.Freeze(profile.BuildIndex(small, p33))) }, "b")
	step("Put new", func() error { f.Put("c", small); return nil }, "c")
	step("Put replacing", func() error { f.Put("c", working); return nil }, "c", "c")
	step("Update", func() error {
		_, log, err := gen.RandomScript(rng, working, 4, gen.DefaultMix)
		if err != nil {
			return err
		}
		_, err = f.Update("a", working, log)
		return err
	}, "a", "a")
	step("ApplyDeltas", func() error { return f.ApplyDeltas("b", nil, nil, nil) }, "b", "b")
	step("ApplyDeltas failed commit", func() error {
		return fails(f.ApplyDeltas("b", nil, nil, func() error { return errors.New("journal full") }))
	})
	step("AddIndexes", func() error {
		return f.AddIndexes([]string{"x2", "x1"}, []profile.Bag{profile.Freeze(profile.BuildIndex(small, p33)), profile.Freeze(profile.BuildIndex(working, p33))}, 2)
	}, "x2", "x1")
	step("AddAll", func() error { return f.AddAll([]forest.Doc{{ID: "y", Tree: small}}, 1) }, "y")
	step("Remove", func() error { return f.Remove("x2") }, "x2")
	step("failed Remove", func() error { return fails(f.Remove("x2")) })
	step("failed Add", func() error { return fails(f.Add("y", small)) })
	step("Evict", func() error {
		ft.bags["c"] = f.TreeIndex("c")
		return f.Evict([]string{"c"}, ft.learn("c"))
	})
	step("Promote", func() error {
		bag, _ := f.Bag("c")
		delete(ft.bags, "c")
		return f.Promote("c", bag, nil)
	})
	step("AddEvicted", func() error {
		ft.bags["z"] = profile.BuildIndex(small, p33)
		doc, err := f.AddEvicted("z", ft.bags["z"].Size(), len(ft.bags["z"]))
		ft.docs["z"] = doc
		return err
	}, "z")
	step("RemoveSwap", func() error { return f.RemoveSwap("z", func() { delete(ft.bags, "z") }) }, "z")
	if err := f.SelfCheck(); err != nil {
		t.Fatal(err)
	}

	now := f.Epoch()
	if ids, ok := f.Changed(now, now); !ok || ids != nil {
		t.Fatalf("Changed over an empty range = %v, %v; want nil, true", ids, ok)
	}
	if _, ok := f.Changed(now-1, now+1); ok {
		t.Fatal("Changed named the documents of an advance not made yet")
	}
	// Fill the ring with b's updates: a range of exactly ChangeRingForTest
	// advances is still named, one more reaches an overwritten record.
	e0 := now
	for f.Epoch()-e0 < forest.ChangeRingForTest {
		if err := f.ApplyDeltas("b", nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if ids, ok := f.Changed(e0, f.Epoch()); !ok || !slices.Equal(ids, []string{"b"}) {
		t.Fatalf("Changed over the whole ring = %v, %v; want [b], true", ids, ok)
	}
	f.Put("w", small)
	if _, ok := f.Changed(e0, f.Epoch()); ok {
		t.Fatal("Changed reached past a record the ring overwrote")
	}
	if ids, ok := f.Changed(e0+1, f.Epoch()); !ok || !slices.Equal(ids, []string{"b", "w"}) {
		t.Fatalf("Changed over the ring's records = %v, %v; want [b w], true", ids, ok)
	}
}

// TestChangedUnderConcurrentUpdates runs delta applications to distinct
// documents in parallel while a reader follows the epoch: every range it
// asks about is named, and only by writers' documents. At the end each
// advance names one writer, twice per application. Run under -race by
// `make test`.
func TestChangedUnderConcurrentUpdates(t *testing.T) {
	const writers, rounds = 4, 100
	f := forest.New(p33)
	ids := make([]string, writers)
	for w := range ids {
		ids[w] = fmt.Sprintf("w%d", w)
		if err := f.Add(ids[w], gen.DBLP(int64(w), 40)); err != nil {
			t.Fatal(err)
		}
	}
	e0 := f.Epoch()
	var wg sync.WaitGroup
	for w := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := f.ApplyDeltas(id, nil, nil, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(ids[w])
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for last, running := e0, true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		e := f.Epoch()
		got, ok := f.Changed(last, e)
		if !ok || (e > last) != (len(got) > 0) {
			t.Fatalf("Changed(%d, %d) = %v, %v mid-run", last, e, got, ok)
		}
		for _, id := range got {
			if !slices.Contains(ids, id) {
				t.Fatalf("Changed(%d, %d) names %q, which no writer touched", last, e, id)
			}
		}
		last = e
	}
	e1 := f.Epoch()
	if e1-e0 != 2*writers*rounds {
		t.Fatalf("epoch %d -> %d, want %d advances", e0, e1, 2*writers*rounds)
	}
	per := make(map[string]int)
	for e := e0 + 1; e <= e1; e++ {
		got, ok := f.Changed(e-1, e)
		if !ok || len(got) != 1 {
			t.Fatalf("advance to %d names %v (ok %v), want one document", e, got, ok)
		}
		per[got[0]]++
	}
	for _, id := range ids {
		if per[id] != 2*rounds {
			t.Errorf("%s is named behind %d advances, want %d", id, per[id], 2*rounds)
		}
	}
}
