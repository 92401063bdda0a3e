// FuzzServeRequest holds the HTTP surface to its validation contract:
// whatever a client sends — malformed JSON, huge or NaN τ, absurd k,
// a stray "plan" field, unparseable XML, pathological document ids — the
// service answers 2xx or 4xx. It never panics and never answers 5xx,
// because a request body must not be able to take the tier down or get
// blamed on the server. Wired into `make fuzz`.

package serve

import (
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
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
