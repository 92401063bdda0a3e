// Unit rows of the cache's patch, keep and miss decisions (cache.go)
// and a -race test of concurrent writers beside repeated readers. Every answer the cache gives is held to the
// forest's own lookup, the cache-off answer.

package serve

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/gen"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// cacheCounts is a snapshot of the cache counters a row asserts on:
// invalidations and, by cause, ring, overCap and topK.
type cacheCounts struct{ hits, misses, patches, invalidations, ring, overCap, topK int64 }

func countsOf(s *Server) cacheCounts {
	return cacheCounts{s.m.cacheHits.Load(), s.m.cacheMisses.Load(), s.m.cachePatches.Load(), s.m.cacheInvalidate.Load(),
		s.m.invalidateRing.Load(), s.m.invalidateCap.Load(), s.m.invalidateTopK.Load()}
}

func (c cacheCounts) minus(o cacheCounts) cacheCounts {
	return cacheCounts{c.hits - o.hits, c.misses - o.misses, c.patches - o.patches, c.invalidations - o.invalidations,
		c.ring - o.ring, c.overCap - o.overCap, c.topK - o.topK}
}

// bagProbe probes the cache for q's bag key under req, as Lookup does.
func bagProbe(s *Server, q profile.Index, req request) probe {
	return s.probe(bagKey(req, q), req, true)
}

func hasMatch(ms []forest.Match, id string) bool {
	return slices.ContainsFunc(ms, func(m forest.Match) bool { return m.TreeID == id })
}

// TestCachePatchKeepMiss runs one write between two probes of one cached
// answer and checks how the second probe was answered and that it equals
// the forest's own answer; a miss counts one invalidation under its
// cause. The query is docs[0]'s bag at τ = 0.5, whose answer holds doc-0
// and doc-1 among others.
func TestCachePatchKeepMiss(t *testing.T) {
	const tau = 0.5
	tiny := tree.MustParse("x(y)") // a bag far below the query's size window
	var doc1Before float64         // doc-1's distance in the first answer
	rows := []struct {
		name  string
		topK  bool
		write func(t *testing.T, s *Server, docs []*tree.Tree)
		want  string // "patch", "keep" or "miss"
		cause string // a miss's: "ring", "cap" or "topk"
		check func(t *testing.T, out []forest.Match)
	}{
		{name: "member distance changes", want: "patch", write: func(t *testing.T, s *Server, docs []*tree.Tree) {
			tn, log, err := gen.Perturb(rand.New(rand.NewSource(1)), docs[1], 3, gen.XMLSafeMix)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Update("doc-1", tn, log); err != nil {
				t.Fatal(err)
			}
		}, check: func(t *testing.T, out []forest.Match) {
			if i := slices.IndexFunc(out, func(m forest.Match) bool { return m.TreeID == "doc-1" }); i < 0 || out[i].Distance == doc1Before {
				t.Errorf("doc-1 was edited but its distance did not move from %v: %v", doc1Before, out)
			}
		}},
		{name: "member leaves", want: "patch", write: func(t *testing.T, s *Server, _ []*tree.Tree) {
			if _, err := s.Put("doc-1", gen.RandomTree(rand.New(rand.NewSource(2)), 120)); err != nil {
				t.Fatal(err)
			}
		}, check: func(t *testing.T, out []forest.Match) {
			if hasMatch(out, "doc-1") {
				t.Error("doc-1 was replaced by an unrelated tree but is still in the answer")
			}
		}},
		{name: "enters from the window", want: "patch", write: func(t *testing.T, s *Server, docs []*tree.Tree) {
			if _, err := s.Put("twin", docs[0]); err != nil {
				t.Fatal(err)
			}
		}, check: func(t *testing.T, out []forest.Match) {
			if !hasMatch(out, "twin") {
				t.Error("a copy of the query was indexed but is not in the answer")
			}
		}},
		{name: "outside the window kept", want: "keep", write: func(t *testing.T, s *Server, _ []*tree.Tree) {
			if _, err := s.Put("tiny", tiny); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "delete", want: "patch", write: func(t *testing.T, s *Server, _ []*tree.Tree) {
			if err := s.Remove("doc-1"); err != nil {
				t.Fatal(err)
			}
		}, check: func(t *testing.T, out []forest.Match) {
			if hasMatch(out, "doc-1") {
				t.Error("doc-1 was removed but is still in the answer")
			}
		}},
		{name: "failed write kept", want: "keep", write: func(t *testing.T, s *Server, _ []*tree.Tree) {
			if err := s.Remove("no-such-doc"); err == nil {
				t.Fatal("removing an unknown document succeeded")
			}
		}},
		{name: "forest-direct write", want: "patch", write: func(t *testing.T, s *Server, docs []*tree.Tree) {
			s.forest.Put("twin", docs[0]) // not through the Server: the forest still records it
		}, check: func(t *testing.T, out []forest.Match) {
			if !hasMatch(out, "twin") {
				t.Error("a copy of the query was indexed on the forest but is not in the answer")
			}
		}},
		{name: "wrapped ring", want: "miss", cause: "ring", write: func(t *testing.T, s *Server, _ []*tree.Tree) {
			e0 := s.forest.Epoch() // the cached answer's
			for i := 0; ; i++ {
				if i > 1<<16 {
					t.Fatal("the forest never stopped naming the changes since the answer")
				}
				if _, err := s.Put("tiny", tiny); err != nil {
					t.Fatal(err)
				}
				if _, ok := s.forest.Changed(e0, s.forest.Epoch()); !ok {
					return
				}
			}
		}},
		{name: "stale top-k", topK: true, want: "miss", cause: "topk", write: func(t *testing.T, s *Server, _ []*tree.Tree) {
			if _, err := s.Put("tiny", tiny); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "cap exceeded", want: "miss", cause: "cap", write: func(t *testing.T, s *Server, docs []*tree.Tree) {
			for i := 0; i <= maxPatch; i++ {
				if _, err := s.Put(fmt.Sprintf("twin-%d", i), docs[0]); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s, docs := newTestServer(t, Config{CacheSize: 8}, 6)
			q := queryOf(t, s, docs[0])
			bags := 0
			req := request{op: opLookup, tau: tau}
			if row.topK {
				req = request{op: opTopK, k: 3}
			}
			probe := func() Result {
				t.Helper()
				r, err := s.query(bagProbe(s, q, req), func() (profile.Index, error) { bags++; return q, nil })
				if err != nil {
					t.Fatal(err)
				}
				want := s.forest.LookupIndex(q, tau)
				if row.topK {
					want = s.forest.LookupIndexTopK(q, 3)
				}
				if !slices.Equal(r.Matches, want) {
					t.Fatalf("answer %v, the forest answers %v", r.Matches, want)
				}
				return r
			}
			first := probe()
			if !row.topK && (!hasMatch(first.Matches, "doc-0") || !hasMatch(first.Matches, "doc-1")) {
				t.Fatalf("fixture answer %v lacks doc-0 or doc-1", first.Matches)
			}
			for _, m := range first.Matches {
				if m.TreeID == "doc-1" {
					doc1Before = m.Distance
				}
			}
			row.write(t, s, docs)
			before, bagsBefore := countsOf(s), bags
			r := probe()
			d := countsOf(s).minus(before)
			var want cacheCounts
			switch row.want {
			case "patch":
				want = cacheCounts{hits: 1, patches: 1}
			case "keep":
				want = cacheCounts{hits: 1}
				if bags != bagsBefore {
					t.Error("a kept answer re-derived the query's bag")
				}
			case "miss":
				want = cacheCounts{misses: 1, invalidations: 1}
				switch row.cause {
				case "ring":
					want.ring = 1
				case "cap":
					want.overCap = 1
				case "topk":
					want.topK = 1
				}
			}
			if d != want || r.Cached != (row.want != "miss") {
				t.Fatalf("second probe: counters moved by %+v, cached=%v; want %+v for a %s", d, r.Cached, want, row.want)
			}
			if row.check != nil {
				row.check(t, r.Matches)
			}
			// Whatever the second probe did, the answer is current now.
			if r3 := probe(); !r3.Cached || r3.Epoch != r.Epoch {
				t.Fatalf("third probe: cached=%v at epoch %d, want a hit at %d", r3.Cached, r3.Epoch, r.Epoch)
			}
		})
	}
}

// TestCacheSeqlockRule pins that an answer computed or patched while a
// write completed is served to its own request but not cached: the
// query's bag is derived mid-request, and a write made there moves the
// epoch before the answer is published.
func TestCacheSeqlockRule(t *testing.T) {
	const tau = 0.5
	tiny := tree.MustParse("x(y)")
	s, docs := newTestServer(t, Config{CacheSize: 8}, 6)
	q := queryOf(t, s, docs[0])
	req := request{op: opLookup, tau: tau}
	writeOnce := false
	probe := func() Result {
		t.Helper()
		r, err := s.query(bagProbe(s, q, req), func() (profile.Index, error) {
			if writeOnce {
				writeOnce = false
				if _, err := s.Put("tiny", tiny); err != nil {
					t.Fatal(err)
				}
			}
			return q, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := s.forest.LookupIndex(q, tau); !slices.Equal(r.Matches, want) {
			t.Fatalf("answer %v, the forest answers %v", r.Matches, want)
		}
		return r
	}
	cachedAt := func() (uint64, bool) {
		ans, ok := s.cache.get(bagKey(req, q))
		return ans.epoch, ok
	}

	writeOnce = true
	if r := probe(); r.Cached {
		t.Fatal("first probe was a hit")
	}
	if e, ok := cachedAt(); ok {
		t.Fatalf("a miss computed across a write was cached at epoch %d", e)
	}
	r := probe()
	if e, ok := cachedAt(); r.Cached || !ok || e != r.Epoch {
		t.Fatalf("quiet miss: cached=%v, entry at %d (present %v); want a miss cached at %d", r.Cached, e, ok, r.Epoch)
	}
	e0 := r.Epoch

	if _, err := s.Put("twin", docs[0]); err != nil { // in the window: the next probe patches
		t.Fatal(err)
	}
	writeOnce = true
	before := countsOf(s)
	if r := probe(); !r.Cached || countsOf(s).minus(before) != (cacheCounts{hits: 1, patches: 1}) {
		t.Fatalf("patch across a write: cached=%v, counters moved by %+v; want a patched hit", r.Cached, countsOf(s).minus(before))
	}
	if e, ok := cachedAt(); !ok || e != e0 {
		t.Fatalf("a patch computed across a write moved the entry to epoch %d (present %v); want it left at %d", e, ok, e0)
	}
	before = countsOf(s)
	r = probe()
	if e, _ := cachedAt(); !r.Cached || countsOf(s).minus(before) != (cacheCounts{hits: 1, patches: 1}) || e != r.Epoch {
		t.Fatalf("quiet patch: cached=%v, counters moved by %+v, entry at %d; want a patched hit cached at %d", r.Cached, countsOf(s).minus(before), e, r.Epoch)
	}
}

// TestCachePatchConcurrentWriters runs in-memory writers — whose epoch
// ranges overlap, as nothing serializes them — beside readers repeating a
// small query pool, in rounds. At the quiescent point after each round
// every pool answer the server gives, and every cache entry at the
// current epoch, equals the forest's own answer. Run under -race by
// `make test`.
func TestCachePatchConcurrentWriters(t *testing.T) {
	const (
		rounds  = 6
		writers = 3
		readers = 4
		writes  = 40
		reads   = 60
		tau     = 0.5
	)
	s, docs := newTestServer(t, Config{CacheSize: 64}, 8)
	pool := make([]profile.Index, len(docs))
	for i := range docs {
		pool[i] = queryOf(t, s, docs[i])
	}
	live := make([]*tree.Tree, writers) // each writer's own document
	for w := range live {
		live[w] = docs[w]
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*writers + w)))
				id := fmt.Sprintf("w-%d", w)
				if _, err := s.Put(id, live[w]); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < writes; i++ {
					switch rng.Intn(4) {
					case 0: // replace
						live[w] = docs[rng.Intn(len(docs))]
						if _, err := s.Put(id, live[w]); err != nil {
							t.Error(err)
							return
						}
					case 1: // remove and put back
						if err := s.Remove(id); err != nil {
							t.Error(err)
							return
						}
						live[w] = docs[rng.Intn(len(docs))]
						if _, err := s.Put(id, live[w]); err != nil {
							t.Error(err)
							return
						}
					default: // edit
						tn, log, err := gen.Perturb(rng, live[w], 1+rng.Intn(3), gen.XMLSafeMix)
						if err != nil {
							t.Error(err)
							return
						}
						if _, err := s.Update(id, tn, log); err != nil {
							t.Error(err)
							return
						}
						live[w] = tn
					}
				}
			}(w)
		}
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(1000 + round*readers + r)))
				for i := 0; i < reads; i++ {
					if _, err := s.Lookup(pool[rng.Intn(3)], tau); err != nil {
						t.Error(err)
						return
					}
				}
			}(r)
		}
		wg.Wait()
		for i, q := range pool {
			r, err := s.Lookup(q, tau)
			if err != nil {
				t.Fatal(err)
			}
			if want := s.forest.LookupIndex(q, tau); !slices.Equal(r.Matches, want) {
				t.Fatalf("round %d, query %d: served %v, the forest answers %v", round, i, r.Matches, want)
			}
		}
		assertCurrentEntries(t, s, pool, tau)
	}
	if s.m.cachePatches.Load() == 0 {
		t.Error("no probe was answered by a patch")
	}
}

// assertCurrentEntries checks every cache entry valid at the current
// epoch against the forest's answer for its query.
func assertCurrentEntries(t *testing.T, s *Server, pool []profile.Index, tau float64) {
	t.Helper()
	byKey := make(map[string]profile.Index, len(pool))
	for _, q := range pool {
		byKey[string(bagKey(request{op: opLookup, tau: tau}, q))] = q
	}
	epoch := s.forest.Epoch()
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	for key, e := range s.cache.entries {
		if e.ans.epoch != epoch {
			continue
		}
		if want := s.forest.LookupIndex(byKey[key], tau); !slices.Equal(e.ans.out, want) {
			t.Fatalf("cache entry at epoch %d holds %v, the forest answers %v", epoch, e.ans.out, want)
		}
	}
}
