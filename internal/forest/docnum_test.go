// Differential battery for the doc-number registry: a forest that has
// handed freed doc numbers to different IDs, moved documents in and out of
// the storage tier and reused its pooled accumulators between all of that
// must answer exactly like a forest built from scratch with the same
// documents.

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

// docScript drives one forest through a random mutation script, keeping
// the documents it should hold in docs.
type docScript struct {
	t    *testing.T
	rng  *rand.Rand
	f    *forest.Index
	ft   *fakeTier
	docs map[string]*tree.Tree
	next int // IDs are never reused, so a recycled doc number names a new ID

	// concurrent is set while other goroutines read the forest: the fake
	// tier has no lock of its own, so its bags may then change only under
	// the registry write lock (the swap callbacks), which rules out
	// replacing or removing an evicted document.
	concurrent bool
}

func newDocScript(t *testing.T, seed int64) *docScript {
	s := &docScript{t: t, rng: rand.New(rand.NewSource(seed)), f: forest.New(p33), ft: newFakeTier(), docs: make(map[string]*tree.Tree)}
	s.f.SetTier(s.ft)
	return s
}

func (s *docScript) newDoc() (string, *tree.Tree) {
	s.next++
	// Few labels and small trees, so that documents share tuples and the
	// accumulators of unrelated lookups overlap.
	return fmt.Sprintf("doc-%03d", s.next), gen.RandomTree(s.rng, 2+s.rng.Intn(25))
}

// pick returns a random indexed ID, resident or evicted as asked.
func (s *docScript) pick(evicted bool) (string, bool) {
	var ids []string
	for _, id := range s.f.IDs() {
		if _, scripted := s.docs[id]; scripted && forest.EvictedForTest(s.f, id) == evicted {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return "", false
	}
	return ids[s.rng.Intn(len(ids))], true
}

func (s *docScript) must(err error) {
	s.t.Helper()
	if err != nil {
		s.t.Fatal(err)
	}
}

// step applies one random mutation.
func (s *docScript) step() {
	s.t.Helper()
	switch op := s.rng.Intn(8); {
	case op < 2 || len(s.docs) < 3: // Put under a new ID
		id, doc := s.newDoc()
		s.f.Put(id, doc)
		s.docs[id] = doc
	case op == 2: // Put replacing a document, resident or evicted
		evicted := !s.concurrent && s.rng.Intn(2) == 0
		id, ok := s.pick(evicted)
		if !ok {
			return
		}
		_, doc := s.newDoc()
		if evicted {
			delete(s.ft.bags, id)
		}
		s.f.Put(id, doc)
		s.docs[id] = doc
	case op == 3: // Remove
		evicted := !s.concurrent && s.rng.Intn(2) == 0
		id, ok := s.pick(evicted)
		if !ok {
			return
		}
		s.must(s.f.Remove(id))
		if evicted {
			delete(s.ft.bags, id)
		}
		delete(s.docs, id)
	case op == 4: // Update a resident document
		if id, ok := s.pick(false); ok {
			_, log, err := gen.RandomScript(s.rng, s.docs[id], 1+s.rng.Intn(4), gen.DefaultMix)
			s.must(err)
			_, err = s.f.Update(id, s.docs[id], log)
			s.must(err)
		}
	case op == 5: // Evict
		if id, ok := s.pick(false); ok {
			bag := s.f.TreeIndex(id)
			s.must(s.f.Evict([]string{id}, func(docs []uint32) {
				s.ft.bags[id] = bag
				s.ft.learn(id)(docs)
			}))
		}
	case op == 6: // Promote
		if id, ok := s.pick(true); ok {
			s.must(s.f.Promote(id, profile.Freeze(s.ft.bags[id]), func() { delete(s.ft.bags, id) }))
		}
	default: // AddIndexes
		ids := make([]string, 1+s.rng.Intn(3))
		bags := make([]profile.Bag, len(ids))
		for i := range ids {
			var doc *tree.Tree
			ids[i], doc = s.newDoc()
			bags[i] = profile.Freeze(profile.BuildIndex(doc, p33))
			s.docs[ids[i]] = doc
		}
		s.must(s.f.AddIndexes(ids, bags, 1+s.rng.Intn(2)))
	}
}

// probe exercises the pooled accumulators between mutations: a slot left
// dirty by one of these would corrupt the next comparison.
func (s *docScript) probe() {
	q := profile.BuildIndex(gen.RandomTree(s.rng, 2+s.rng.Intn(25)), p33)
	s.f.LookupIndex(q, 0.2+s.rng.Float64())
	s.f.LookupIndexTopK(q, 1+s.rng.Intn(4))
}

// compare holds the scripted forest to one rebuilt from scratch.
func (s *docScript) compare(extra []forest.Doc, ctx string) {
	s.t.Helper()
	if err := s.f.SelfCheck(); err != nil {
		s.t.Fatalf("%s: %v", ctx, err)
	}
	ref := forest.New(p33)
	for id, doc := range s.docs {
		s.must(ref.Add(id, doc))
	}
	s.must(ref.AddAll(extra, 1))
	queries := []*tree.Tree{gen.RandomTree(s.rng, 2+s.rng.Intn(25))}
	for _, evicted := range []bool{false, true} {
		if id, ok := s.pick(evicted); ok {
			queries = append(queries, s.docs[id])
		}
	}
	for _, query := range queries {
		q := profile.BuildIndex(query, p33)
		for _, tau := range []float64{0.1, 0.5, 1, 1.5} {
			if got, want := s.f.LookupIndex(q, tau), ref.LookupIndex(q, tau); !reflect.DeepEqual(got, want) {
				s.t.Fatalf("%s: lookup tau=%v\ngot:  %v\nwant: %v", ctx, tau, got, want)
			}
		}
		for _, k := range []int{1, 3, ref.Len() + 1} {
			if got, want := s.f.LookupIndexTopK(q, k), ref.LookupIndexTopK(q, k); !reflect.DeepEqual(got, want) {
				s.t.Fatalf("%s: top-%d\ngot:  %v\nwant: %v", ctx, k, got, want)
			}
		}
	}
	if got, want := s.f.SimilarityJoin(0.6, 2), ref.SimilarityJoin(0.6, 1); !reflect.DeepEqual(got, want) {
		s.t.Fatalf("%s: join\ngot:  %v\nwant: %v", ctx, got, want)
	}
}

// TestRecycledDocNumbers runs 200 random scripts of Put, Remove, Update,
// Evict, Promote and AddIndexes — freed doc numbers going to new IDs
// throughout, lookups and top-k between the steps — and compares the
// forest with a rebuilt one after every step.
func TestRecycledDocNumbers(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		s := newDocScript(t, seed)
		for step := 0; step < 14; step++ {
			s.step()
			s.probe()
			s.compare(nil, fmt.Sprintf("seed %d step %d", seed, step))
		}
	}
}

// TestRecycledDocNumbersUnderConcurrentAddAll runs the same scripts while
// bulk batches claim doc numbers and readers hold accumulators, for the
// race detector, and compares with a rebuilt forest once all is quiet.
func TestRecycledDocNumbersUnderConcurrentAddAll(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		s := newDocScript(t, 1000+seed)
		for i := 0; i < 6; i++ {
			s.step()
		}
		var bulk []forest.Doc
		for i := 0; i < 12; i++ {
			bulk = append(bulk, forest.Doc{ID: fmt.Sprintf("bulk-%02d", i), Tree: gen.DBLP(seed*12+int64(i), 20+i)})
		}
		q := profile.BuildIndex(bulk[0].Tree, p33)
		s.concurrent = true
		var wg sync.WaitGroup
		for b := 0; b < 3; b++ {
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				if err := s.f.AddAll(bulk[b*4:b*4+4], 2); err != nil {
					t.Error(err)
				}
			}(b)
		}
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					s.f.LookupIndex(q, 0.1+float64((r+i)%15)/10)
					s.f.LookupIndexTopK(q, 1+(r+i)%6)
					if i%10 == 0 {
						s.f.SimilarityJoin(0.5, 2)
					}
				}
			}(r)
		}
		for i := 0; i < 10; i++ {
			s.step()
		}
		wg.Wait()
		s.compare(bulk, fmt.Sprintf("seed %d post-concurrency", seed))
	}
}
