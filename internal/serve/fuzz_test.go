// FuzzServeRequest holds the HTTP surface to its validation contract:
// whatever a client sends — malformed JSON, huge or NaN τ, absurd k,
// a stray "plan" field, unparseable XML, pathological document ids — the
// service answers 2xx or 4xx. It never panics and never answers 5xx,
// because a request body must not be able to take the tier down or get
// blamed on the server. Wired into `make fuzz`. FuzzCachePatch below
// holds the cache to the cache-off server across writes.

package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/gen"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
	"pqgram/internal/xmlconv"
)

func FuzzServeRequest(f *testing.F) {
	// One shared server across all iterations: mutating endpoints really
	// mutate it, which is the production shape (and a second correctness
	// signal — no input sequence may corrupt the index).
	srv := New(forest.New(profile.Default), nil, Config{CacheSize: 16}, nil)
	for _, id := range []string{"a", "b"} {
		if _, err := srv.Put(id, tree.MustParse("a(b(c) d)")); err != nil {
			f.Fatal(err)
		}
	}

	// Seeds: one well-formed and one hostile request per endpoint family.
	seeds := []struct {
		which uint8
		id    string
		body  string
	}{
		{0, "", `{"xml":"<a><b/></a>","tau":0.5}`},
		{0, "", `{"xml":"<a/>","tau":1e308,"plan":"quantum"}`},
		{0, "", `{"xml":"<a/>","top":2147483647}`},
		{0, "", `{`},
		{1, "", `{"xml":"<a/>","k":3}`},
		{1, "", `{"xml":"<a/>","k":-9000000}`},
		{2, "", `{"xml":"<a><b/></a>","tau":0.4}`},
		{2, "", `{"xml":"<unclosed","k":1000000}`},
		{3, "doc-1", `<a><b/><c/></a>`},
		{3, strings.Repeat("x", 600), `<a/>`},
		{4, "doc-1", ``},
		{5, "a", `{"xml":"<a/>","log":["garbage"]}`},
		{5, "a", `{"xml":"<a(b)>","ids":[1,2],"log":[]}`},
		{6, "", ``},
	}
	for _, s := range seeds {
		f.Add(s.which, s.id, s.body)
	}

	f.Fuzz(func(t *testing.T, which uint8, id, body string) {
		var method, path string
		switch which % 7 {
		case 0:
			method, path = "POST", "/lookup"
		case 1:
			method, path = "POST", "/topk"
		case 2:
			method, path = "POST", "/explain"
		case 3:
			method, path = "PUT", "/docs/"+url.PathEscape(id)
		case 4:
			method, path = "DELETE", "/docs/"+url.PathEscape(id)
		case 5:
			method, path = "POST", "/docs/"+url.PathEscape(id)+"/edits"
		case 6:
			method, path = "GET", "/stats"
		}
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code < 200 || w.Code >= 500 {
			t.Fatalf("%s %s with body %q answered %d (want 2xx-4xx): %s",
				method, path, body, w.Code, w.Body.String())
		}
	})
}

// FuzzCachePatch drives a cached and a cache-off server through one
// byte-driven script of Put, Remove and Update interleaved with lookups
// drawn from a small pool, so queries repeat across writes and the cache
// patches, keeps or misses them. Every answer — programmatic (the bag
// form of the key) or over HTTP (the XML form) — must equal the cache-off
// server's. Each pair of bytes is one step: the first picks the
// operation, the second its document, variant, query or τ. A write whose
// second byte has its top bit set goes straight to each server's forest,
// past the Server. Wired into `make fuzz`.
func FuzzCachePatch(f *testing.F) {
	base := gen.DBLP(3, 60)
	rng := rand.New(rand.NewSource(3))
	variants := make([]*tree.Tree, 6)
	for i := range variants {
		v, _, err := gen.Perturb(rng, base, 2*i, gen.XMLSafeMix)
		if err != nil {
			f.Fatal(err)
		}
		variants[i] = v
	}
	variants[5] = tree.MustParse("x(y z)") // far outside every window
	queries := make([]profile.Index, 4)
	xmls := make([]string, len(queries))
	for i := range queries {
		queries[i] = profile.BuildIndex(variants[i], profile.Default)
		x, err := xmlconv.WriteString(variants[i])
		if err != nil {
			f.Fatal(err)
		}
		xmls[i] = x
	}
	taus := []float64{0.2, 0.4, 0.6, 0.8}

	f.Add([]byte{3, 0, 0, 1, 3, 0, 2, 2, 3, 0})
	f.Add([]byte{3, 5, 1, 0, 3, 5, 0, 9, 3, 5, 3, 5})
	f.Add([]byte{3, 17, 3, 1, 0, 13, 3, 17, 2, 3, 3, 1, 3, 17})
	f.Add([]byte{3, 0, 0, 132, 3, 0, 2, 129, 3, 0, 1, 128, 3, 0, 3, 64})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		cached := New(forest.New(profile.Default), nil, Config{CacheSize: 8}, nil)
		plain := New(forest.New(profile.Default), nil, Config{}, nil)
		both := []*Server{cached, plain}
		live := make(map[string]*tree.Tree)
		for i := 0; i < 4; i++ {
			id := fmt.Sprintf("doc-%d", i)
			live[id] = variants[i]
			for _, s := range both {
				if _, err := s.Put(id, variants[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], int(script[i+1])
			id := fmt.Sprintf("doc-%d", arg%6)
			direct := arg&128 != 0
			switch op % 4 {
			case 0: // Put a variant
				v := variants[arg/6%len(variants)]
				live[id] = v
				for _, s := range both {
					if direct {
						s.forest.Put(id, v)
					} else if _, err := s.Put(id, v); err != nil {
						t.Fatal(err)
					}
				}
			case 1: // Remove, present or not
				delete(live, id)
				var errs [2]error
				for j, s := range both {
					if direct {
						errs[j] = s.forest.Remove(id)
					} else {
						errs[j] = s.Remove(id)
					}
				}
				if (errs[0] == nil) != (errs[1] == nil) {
					t.Fatalf("remove %s: cached %v, cache-off %v", id, errs[0], errs[1])
				}
			case 2: // Update through an edit log
				cur := live[id]
				if cur == nil {
					continue
				}
				tn, log, err := gen.Perturb(rand.New(rand.NewSource(int64(arg))), cur, 1+arg%3, gen.XMLSafeMix)
				if err != nil {
					t.Fatal(err)
				}
				live[id] = tn
				for _, s := range both {
					if direct {
						_, err = s.forest.Update(id, tn, log)
					} else {
						_, err = s.Update(id, tn, log)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			default: // a pool lookup, programmatic or over HTTP
				qi, tau := arg%len(queries), taus[arg/len(queries)%len(taus)]
				if arg&64 == 0 {
					got, err1 := cached.Lookup(queries[qi], tau)
					want, err2 := plain.Lookup(queries[qi], tau)
					if err1 != nil || err2 != nil || !slices.Equal(got.Matches, want.Matches) {
						t.Fatalf("step %d: query %d at τ %v: cached %v (%v), cache-off %v (%v)",
							i/2, qi, tau, got.Matches, err1, want.Matches, err2)
					}
					continue
				}
				b, _ := json.Marshal(LookupRequest{XML: xmls[qi], Tau: tau})
				code, got := doPost(cached, "/lookup", string(b))
				wantCode, want := doPost(plain, "/lookup", string(b))
				if code != wantCode || got != want {
					t.Fatalf("step %d: query %d at τ %v over HTTP: cached %d %s, cache-off %d %s",
						i/2, qi, tau, code, got, wantCode, want)
				}
			}
		}
	})
}

// FuzzCachedReply sends one arbitrary body to /lookup or /topk twice on
// a cache-on server and once on a cache-off server over the same forest.
// The status, Content-Type and body bytes must agree, and a 200 from the
// cache-on server is a miss, then a hit: whatever a client sends, a hit
// answers exactly what a miss did, and only a body that answered is
// cached. Wired into `make fuzz`.
func FuzzCachedReply(f *testing.F) {
	// Small documents keep the inputs short, so the engine mutates them
	// quickly and minimizes a new one in well under a FUZZTIME.
	fr := forest.New(profile.Default)
	for i, doc := range []string{"a(b c)", "a(b(c) d)", "a(b c d)", "a(x(y) b)", "r(s t(u))"} {
		fr.Put(fmt.Sprintf("doc-%d", i), tree.MustParse(doc))
	}
	for _, seed := range []struct {
		topk bool
		body string
	}{
		{false, `{"xml":"<a><b/><c/></a>","tau":0.5}`},
		{false, `{"tau":0.9,"xml":"<a><b><c/></b><d/></a>"} trailing`},
		{false, `{"xml":"<a><b/><c/></a>","top":2}`},
		{false, `{"xml":"<a/>"}`},
		{false, `{"xml":"<a/>","tau":2}`},
		{false, `{"xml":"<a>","tau":0.5}`},
		{false, `{`},
		{false, ``},
		{true, `{"xml":"<a><b/><c/></a>","k":3}`},
		{true, `{"xml":"<r><s/></r>"}`},
		{true, `{"xml":"<a/>","k":-1}`},
		{true, `[1,2]`},
	} {
		f.Add(seed.topk, seed.body)
	}
	f.Fuzz(func(t *testing.T, topk bool, body string) {
		path := "/lookup"
		if topk {
			path = "/topk"
		}
		post := func(s *Server) *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
			return w
		}
		cached := New(fr, nil, Config{CacheSize: 4}, nil)
		want := post(New(fr, nil, Config{}, nil))
		for pass, cache := range []string{"miss", "hit"} {
			got := post(cached)
			if got.Code != want.Code || got.Body.String() != want.Body.String() ||
				got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
				t.Fatalf("%s %q pass %d: cache-on %d %q %s, cache-off %d %q %s", path, body, pass,
					got.Code, got.Header().Get("Content-Type"), got.Body.String(),
					want.Code, want.Header().Get("Content-Type"), want.Body.String())
			}
			if got.Code == 200 && got.Header().Get("X-Cache") != cache {
				t.Fatalf("%s %q pass %d: X-Cache %q, want %q", path, body, pass, got.Header().Get("X-Cache"), cache)
			}
		}
	})
}
