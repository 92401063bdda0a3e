// The differential battery: the serving tier's cache must be semantically
// invisible. For 200 seeded scripts of interleaved
// Put/Remove/Update/Lookup/TopK — writes through the Server and straight
// on its forest, and one bulk AddIndexes batch — every HTTP response from
// a server with the cache enabled must be byte-identical to the response
// from a server with it disabled, including repeats (which hit the
// cache), bursts of concurrent identical requests (which race to fill it)
// and queries re-issued after writes (which the cache patches, keeps or
// misses).
// Run under -race by `make test`; a stale-cache-after-update bug, a
// patch that re-scores the wrong documents or an epoch bump missed by
// any mutation path fails this test.

package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/gen"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
	"pqgram/internal/xmlconv"
)

const (
	diffSeeds      = 200
	diffOps        = 12
	diffBurst      = 4 // concurrent identical requests per lookup on the cached server
	diffCorpusSize = 5
)

// diffServer pairs a server with the live trees of its corpus so the
// script can derive updates and queries from current document states.
type diffServer struct {
	srv  *Server
	live map[string]*tree.Tree
}

func newDiffServer(cacheSize int) *diffServer {
	return &diffServer{
		srv:  New(forest.New(profile.Default), nil, Config{CacheSize: cacheSize}, nil),
		live: make(map[string]*tree.Tree),
	}
}

func TestDifferentialCacheOnOff(t *testing.T) {
	if testing.Short() {
		t.Skip("200-seed differential battery")
	}
	// The scripts re-issue earlier queries after writes, so the patch path
	// must have run somewhere; checked once every seed has finished.
	var patches atomic.Int64
	t.Cleanup(func() {
		t.Logf("%d patched probes over %d scripts", patches.Load(), diffSeeds)
		if !t.Failed() && patches.Load() == 0 {
			t.Error("no script's re-issued query was answered by a patch")
		}
	})
	for seed := int64(0); seed < diffSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			patches.Add(runDiffScript(t, seed))
		})
	}
}

// runDiffScript runs one seeded script and returns how many of the
// cached server's probes were patched.
func runDiffScript(t *testing.T, seed int64) int64 {
	rng := rand.New(rand.NewSource(seed))
	cached := newDiffServer(64)
	plain := newDiffServer(0)
	both := []*diffServer{cached, plain}

	// Seed corpus: perturbed variants of one generated document, so
	// queries land near several trees and lookups return real match sets.
	base := gen.DBLP(seed, 80)
	for i := 0; i < diffCorpusSize; i++ {
		doc := mustPerturbT(t, rng, base, 2*i)
		for _, ds := range both {
			ds.put(t, fmt.Sprintf("doc-%d", i), doc)
		}
	}

	// Every query asked so far, as (path, body): a lookup re-issues one of
	// them half the time, after whatever writes came between.
	type request struct{ path, body string }
	var asked []request
	for op := 0; op < diffOps; op++ {
		if op == diffOps/2 { // a bulk build beside the Server: new documents near the corpus
			_, cur := pickDoc(rng, cached.live)
			ids := []string{fmt.Sprintf("batch-%d", op), fmt.Sprintf("batch-%d-b", op)}
			docs := []*tree.Tree{mustPerturbT(t, rng, cur, 1), mustPerturbT(t, rng, cur, 4)}
			bags := []profile.Bag{profile.Freeze(profile.BuildIndex(docs[0], profile.Default)), profile.Freeze(profile.BuildIndex(docs[1], profile.Default))}
			for _, ds := range both {
				if err := ds.srv.forest.AddIndexes(ids, bags, 2); err != nil {
					t.Fatalf("seed %d op %d: AddIndexes: %v", seed, op, err)
				}
				ds.live[ids[0]], ds.live[ids[1]] = docs[0], docs[1]
			}
		}
		switch rng.Intn(7) {
		case 0: // Put: replace an existing document with a perturbed copy
			id, cur := pickDoc(rng, cached.live)
			doc := mustPerturbT(t, rng, cur, 3)
			for _, ds := range both {
				ds.put(t, id, doc)
			}
		case 1: // Remove, then re-add later puts can resurrect
			if len(cached.live) <= 1 {
				continue
			}
			id, _ := pickDoc(rng, cached.live)
			for _, ds := range both {
				if err := ds.srv.Remove(id); err != nil {
					t.Fatalf("seed %d op %d: remove %s: %v", seed, op, id, err)
				}
				delete(ds.live, id)
			}
		case 2: // Update: incremental maintenance through the edit-log path
			id, cur := pickDoc(rng, cached.live)
			tn, log, err := gen.Perturb(rng, cur, 2, gen.XMLSafeMix)
			if err != nil {
				t.Fatalf("seed %d op %d: perturb: %v", seed, op, err)
			}
			for _, ds := range both {
				if _, err := ds.srv.Update(id, tn, log); err != nil {
					t.Fatalf("seed %d op %d: update %s: %v", seed, op, id, err)
				}
				ds.live[id] = tn
			}
		case 6: // the same write straight on each forest, past the Server
			id, cur := pickDoc(rng, cached.live)
			switch rng.Intn(3) {
			case 0:
				doc := mustPerturbT(t, rng, cur, 3)
				for _, ds := range both {
					ds.srv.forest.Put(id, doc)
					ds.live[id] = doc
				}
			case 1:
				tn, log, err := gen.Perturb(rng, cur, 2, gen.XMLSafeMix)
				if err != nil {
					t.Fatalf("seed %d op %d: perturb: %v", seed, op, err)
				}
				for _, ds := range both {
					if _, err := ds.srv.forest.Update(id, tn, log); err != nil {
						t.Fatalf("seed %d op %d: forest update %s: %v", seed, op, id, err)
					}
					ds.live[id] = tn
				}
			default:
				if len(cached.live) <= 1 {
					continue
				}
				for _, ds := range both {
					if err := ds.srv.forest.Remove(id); err != nil {
						t.Fatalf("seed %d op %d: forest remove %s: %v", seed, op, id, err)
					}
					delete(ds.live, id)
				}
			}
		default: // Lookup or TopK: an earlier query, or one over a noisy copy of a live document
			if len(asked) > 0 && rng.Intn(2) == 0 {
				r := asked[rng.Intn(len(asked))]
				compareResponses(t, seed, op, cached.srv, plain.srv, r.path, r.body)
				continue
			}
			_, cur := pickDoc(rng, cached.live)
			query := mustPerturbT(t, rng, cur, 1+rng.Intn(3))
			xml, err := xmlconv.WriteString(query)
			if err != nil {
				t.Fatalf("seed %d op %d: serialize query: %v", seed, op, err)
			}
			var path, body string
			if rng.Intn(2) == 0 {
				path = "/lookup"
				b, _ := json.Marshal(LookupRequest{XML: xml, Tau: 0.2 + 0.2*float64(rng.Intn(4))})
				body = string(b)
			} else {
				path = "/topk"
				b, _ := json.Marshal(TopKRequest{XML: xml, K: 1 + rng.Intn(3)})
				body = string(b)
			}
			asked = append(asked, request{path, body})
			compareResponses(t, seed, op, cached.srv, plain.srv, path, body)
		}
	}
	return cached.srv.m.cachePatches.Load()
}

// compareResponses issues the query once against the cache-off server and
// three times against the cached server — twice sequentially (the second
// must be served from the cache) and once as a burst of concurrent
// identical requests — and requires every status and body to be
// byte-identical.
func compareResponses(t *testing.T, seed int64, op int, cached, plain *Server, path, body string) {
	t.Helper()
	wantCode, wantBody := doPost(plain, path, body)
	for pass := 0; pass < 2; pass++ {
		code, got := doPost(cached, path, body)
		if code != wantCode || got != wantBody {
			t.Fatalf("seed %d op %d pass %d: %s diverged\ncache-on:  %d %s\ncache-off: %d %s",
				seed, op, pass, path, code, got, wantCode, wantBody)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < diffBurst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, got := doPost(cached, path, body)
			if code != wantCode || got != wantBody {
				t.Errorf("seed %d op %d burst: %s diverged\ncache-on:  %d %s\ncache-off: %d %s",
					seed, op, path, code, got, wantCode, wantBody)
			}
		}()
	}
	wg.Wait()
}

func doPost(s *Server, path, body string) (int, string) {
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w.Code, w.Body.String()
}

func (ds *diffServer) put(t *testing.T, id string, doc *tree.Tree) {
	t.Helper()
	if _, err := ds.srv.Put(id, doc); err != nil {
		t.Fatalf("put %s: %v", id, err)
	}
	ds.live[id] = doc
}

// pickDoc returns a deterministic random live document: map iteration
// order is randomized, so the candidates are sorted by ID first.
func pickDoc(rng *rand.Rand, live map[string]*tree.Tree) (string, *tree.Tree) {
	ids := make([]string, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sortStrings(ids)
	id := ids[rng.Intn(len(ids))]
	return id, live[id]
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func mustPerturbT(t *testing.T, rng *rand.Rand, base *tree.Tree, n int) *tree.Tree {
	t.Helper()
	out, _, err := gen.Perturb(rng, base, n, gen.XMLSafeMix)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
