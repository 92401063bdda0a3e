// The HTTP edge behaviour of /lookup and /topk that any change to how a
// request body is read, keyed or answered must keep: what json.Decoder
// accepts from the wire, where the body bound bites, which errors come
// before admission, and the exact bytes of each reply.

package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"pqgram/internal/forest"
)

// TestHTTPTrailingBytesAccepted: only the first JSON value of a body is
// read; whatever follows it is ignored, on a miss and on a repeat.
func TestHTTPTrailingBytesAccepted(t *testing.T) {
	s, docs := newTestServer(t, Config{CacheSize: 8}, 3)
	xml := mustBody(t, docs[0])
	for _, tc := range []struct{ path, body string }{
		{"/lookup", fmt.Sprintf(`{"xml":%q,"tau":0.5}`, xml)},
		{"/lookup", fmt.Sprintf(`{"xml":%q,"top":2}`, xml)},
		{"/topk", fmt.Sprintf(`{"xml":%q,"k":2}`, xml)},
	} {
		_, want := doPost(s, tc.path, tc.body)
		for _, tail := range []string{" ", "\n{", "}}} not json", `{"xml":"<b/>","tau":0.9}`} {
			for pass := 0; pass < 2; pass++ {
				w := do(t, s, "POST", tc.path, tc.body+tail)
				if w.Code != 200 || w.Body.String() != want {
					t.Fatalf("%s %s + %q pass %d = %d %s, want 200 %s", tc.path, tc.body, tail, pass, w.Code, w.Body.String(), want)
				}
			}
		}
	}
}

// TestHTTPBodyOverLimit: a body longer than MaxBodyBytes is answered
// when its JSON value ends inside the bound, and is a 400 naming the
// bound when the value runs past it.
func TestHTTPBodyOverLimit(t *testing.T) {
	const limit = 512
	s, _ := newTestServer(t, Config{CacheSize: 8, MaxBodyBytes: limit}, 3)
	value := `{"xml":"<a><b/></a>","tau":0.5}`
	pad := strings.Repeat(" ", 2*limit)
	_, want := doPost(s, "/lookup", value)
	for pass := 0; pass < 2; pass++ {
		if w := do(t, s, "POST", "/lookup", value+pad); w.Code != 200 || w.Body.String() != want {
			t.Fatalf("pass %d: value inside the bound, body past it = %d %s, want 200 %s", pass, w.Code, w.Body.String(), want)
		}
	}
	long := fmt.Sprintf(`{"xml":"<a>%s</a>","tau":0.5}`, strings.Repeat("<b/>", limit))
	for _, path := range []string{"/lookup", "/topk"} {
		w := do(t, s, "POST", path, long)
		if w.Code != http.StatusBadRequest || w.Body.String() != `{"error":"bad request: http: request body too large"}`+"\n" {
			t.Fatalf("%s: value past the bound = %d %s, want 400 naming the bound", path, w.Code, w.Body.String())
		}
	}
}

// TestHTTPBadBodyBeforeAdmission: a malformed body and an out-of-range
// τ, top or k are answered 400 while the only in-flight slot is held,
// not queued or shed: they are rejected before admission.
func TestHTTPBadBodyBeforeAdmission(t *testing.T) {
	s, docs := newTestServer(t, Config{CacheSize: 8, MaxInFlight: 1}, 2)
	entered := make(chan struct{})
	release := make(chan struct{})
	var hookOnce sync.Once
	s.hookMiss = func() {
		hookOnce.Do(func() { close(entered); <-release })
	}
	holder, _ := json.Marshal(LookupRequest{XML: mustBody(t, docs[1]), Tau: 0.5})
	done := make(chan int, 1)
	go func() { done <- do(t, s, "POST", "/lookup", string(holder)).Code }()
	<-entered

	for _, tc := range []struct{ path, body string }{
		{"/lookup", `{`},
		{"/lookup", `{"xml":3}`},
		{"/lookup", ``},
		{"/lookup", `{"xml":"<a/>","tau":1.5}`},
		{"/lookup", `{"xml":"<a/>","top":-1}`},
		{"/topk", `[`},
		{"/topk", `{"xml":"<a/>","k":-2}`},
	} {
		if w := do(t, s, "POST", tc.path, tc.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s %q with the slot held = %d %s, want 400", tc.path, tc.body, w.Code, w.Body.String())
		}
	}
	close(release)
	if code := <-done; code != 200 {
		t.Fatalf("slot holder = %d, want 200", code)
	}
}

// TestHTTPTopReplies pins the reply of each k-nearest form: /lookup with
// "top" answers the bare match array, /topk an object carrying k (5 when
// absent) beside the matches; a repeat answers the same bytes.
func TestHTTPTopReplies(t *testing.T) {
	s, docs := newTestServer(t, Config{CacheSize: 8}, 6)
	xml := mustBody(t, docs[0])
	encode := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	topk := func(k int) []forest.Match { return s.forest.LookupIndexTopK(queryOf(t, s, docs[0]), k) }
	for _, tc := range []struct {
		path, body, want string
	}{
		{"/lookup", fmt.Sprintf(`{"xml":%q,"top":3}`, xml), encode(topk(3))},
		{"/lookup", fmt.Sprintf(`{"xml":%q,"top":2,"tau":0.1}`, xml), encode(topk(2))},
		{"/topk", fmt.Sprintf(`{"xml":%q,"k":4}`, xml), `{"k":4,"matches":` + strings.TrimSuffix(encode(topk(4)), "\n") + "}\n"},
		{"/topk", fmt.Sprintf(`{"xml":%q}`, xml), `{"k":5,"matches":` + strings.TrimSuffix(encode(topk(5)), "\n") + "}\n"},
	} {
		for pass, cache := range []string{"miss", "hit"} {
			w := do(t, s, "POST", tc.path, tc.body)
			if w.Code != 200 || w.Body.String() != tc.want {
				t.Fatalf("%s %.40s pass %d = %d %s, want 200 %s", tc.path, tc.body, pass, w.Code, w.Body.String(), tc.want)
			}
			if got := w.Header().Get("X-Cache"); got != cache {
				t.Fatalf("%s %.40s pass %d: X-Cache %q, want %q", tc.path, tc.body, pass, got, cache)
			}
			if got := w.Header().Get("Content-Type"); got != "application/json" {
				t.Fatalf("%s %.40s pass %d: Content-Type %q", tc.path, tc.body, pass, got)
			}
		}
	}
}

// TestHTTPJSONSpellings: bodies that spell one request differently —
// field order, escapes, spacing — answer byte-identical replies.
func TestHTTPJSONSpellings(t *testing.T) {
	s, docs := newTestServer(t, Config{CacheSize: 8}, 3)
	xml := mustBody(t, docs[0])
	escaped, _ := json.Marshal(xml) // spells < and > as \u003c and \u003e
	for _, tc := range []struct {
		path      string
		spellings []string
	}{
		{"/lookup", []string{
			fmt.Sprintf(`{"xml":%q,"tau":0.5}`, xml),
			fmt.Sprintf(`{"tau":0.5,"xml":%q}`, xml),
			fmt.Sprintf(` { "xml" : %s , "tau" : 5e-1 } `, escaped),
		}},
		{"/topk", []string{
			fmt.Sprintf(`{"xml":%q,"k":2}`, xml),
			fmt.Sprintf(`{"k":2,"xml":%s}`, escaped),
		}},
	} {
		_, want := doPost(s, tc.path, tc.spellings[0])
		for i, body := range tc.spellings {
			if w := do(t, s, "POST", tc.path, body); w.Code != 200 || w.Body.String() != want {
				t.Fatalf("%s spelling %d = %d %s, want 200 %s", tc.path, i, w.Code, w.Body.String(), want)
			}
		}
	}
}
