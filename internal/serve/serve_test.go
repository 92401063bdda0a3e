// White-box unit tests of the serving tier's two mechanisms — the result
// cache (hit, patching across writes, LRU eviction, keys on the query's
// bytes) and admission control (queue shedding, latency-budget shedding
// and recovery) — plus the HTTP validation surface. The cross-cutting
// correctness arguments live in diff_test.go (semantic invisibility) and
// soak_test.go (no lost responses under contention).

package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pqgram/internal/core"
	"pqgram/internal/edit"
	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/gen"
	"pqgram/internal/profile"
	"pqgram/internal/store"
	"pqgram/internal/tree"
	"pqgram/internal/xmlconv"
)

// newTestServer builds a serving tier over a fresh forest seeded with n
// generated documents, returning the server and the document trees.
func newTestServer(t *testing.T, cfg Config, n int) (*Server, []*tree.Tree) {
	t.Helper()
	f := forest.New(profile.Default)
	rng := rand.New(rand.NewSource(7))
	docs := make([]*tree.Tree, n)
	base := gen.DBLP(7, 120)
	for i := range docs {
		d, _, err := gen.Perturb(rng, base, 2*i, gen.XMLSafeMix)
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = d
		f.Put(fmt.Sprintf("doc-%d", i), d)
	}
	return New(f, nil, cfg, nil), docs
}

func queryOf(t *testing.T, s *Server, doc *tree.Tree) profile.Index {
	t.Helper()
	return profile.BuildIndex(doc, s.forest.Params())
}

func TestCacheHitAndEpochInvalidation(t *testing.T) {
	s, docs := newTestServer(t, Config{CacheSize: 8}, 3)
	q := queryOf(t, s, docs[0])

	r1, err := s.Lookup(q, 0.5)
	if err != nil || r1.Cached {
		t.Fatalf("first lookup: cached=%v err=%v, want fresh", r1.Cached, err)
	}
	r2, err := s.Lookup(q, 0.5)
	if err != nil || !r2.Cached {
		t.Fatalf("repeat lookup: cached=%v err=%v, want hit", r2.Cached, err)
	}
	if len(r1.Matches) != len(r2.Matches) {
		t.Fatalf("hit returned %d matches, fresh returned %d", len(r2.Matches), len(r1.Matches))
	}
	if got := s.m.cacheHits.Load(); got != 1 {
		t.Fatalf("serve_cache_hit = %d, want 1", got)
	}

	// A mutation advances the epoch. Made straight on the forest, it is
	// still recorded there, so the answer is patched, not invalidated, and
	// equals the forest's own.
	s.forest.Put("doc-0", docs[1])
	r3, err := s.Lookup(q, 0.5)
	if err != nil || !r3.Cached {
		t.Fatalf("post-mutation lookup: cached=%v err=%v, want a patched hit", r3.Cached, err)
	}
	if want := s.forest.LookupIndex(q, 0.5); !slices.Equal(r3.Matches, want) {
		t.Fatalf("patched answer %v, the forest answers %v", r3.Matches, want)
	}
	if got := s.m.cachePatches.Load(); got != 1 || s.m.cacheInvalidate.Load() != 0 {
		t.Fatalf("serve_cache_patch = %d, serve_cache_invalidate = %d; want 1 and 0", got, s.m.cacheInvalidate.Load())
	}
	if r3.Epoch <= r1.Epoch {
		t.Fatalf("epoch did not advance across mutation: %d -> %d", r1.Epoch, r3.Epoch)
	}
}

func TestCacheDistinguishesOpsAndParams(t *testing.T) {
	s, docs := newTestServer(t, Config{CacheSize: 16}, 3)
	q := queryOf(t, s, docs[0])

	if _, err := s.Lookup(q, 0.5); err != nil {
		t.Fatal(err)
	}
	// Same bag, different τ / different op / different k: all misses.
	for name, res := range map[string]func() (Result, error){
		"other tau": func() (Result, error) { return s.Lookup(q, 0.6) },
		"topk":      func() (Result, error) { return s.TopK(q, 2) },
		"other k":   func() (Result, error) { return s.TopK(q, 3) },
	} {
		r, err := res()
		if err != nil || r.Cached {
			t.Fatalf("%s: cached=%v err=%v, want fresh", name, r.Cached, err)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	s, docs := newTestServer(t, Config{CacheSize: 2}, 4)
	for i := 0; i < 3; i++ {
		if _, err := s.Lookup(queryOf(t, s, docs[i]), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.cache.len(); got != 2 {
		t.Fatalf("cache holds %d entries, want capacity 2", got)
	}
	// The first query is the eviction victim; the last two still hit.
	if r, _ := s.Lookup(queryOf(t, s, docs[0]), 0.5); r.Cached {
		t.Fatal("evicted entry served a hit")
	}
	if r, _ := s.Lookup(queryOf(t, s, docs[2]), 0.5); !r.Cached {
		t.Fatal("resident entry missed")
	}
}

// TestBagKeyIndependentOfMapOrder pins the programmatic cache key: equal
// bags built in any order share one key, and any change to a tuple's
// count or presence changes it.
func TestBagKeyIndependentOfMapOrder(t *testing.T) {
	q := profile.BuildIndex(gen.RandomTree(rand.New(rand.NewSource(3)), 60), profile.Default)
	tuples := make([]profile.LabelTuple, 0, len(q))
	for lt := range q {
		tuples = append(tuples, lt)
	}
	slices.Sort(tuples)
	up, down := make(profile.Index), make(profile.Index)
	for i := range tuples {
		up[tuples[i]] = q[tuples[i]]
		j := len(tuples) - 1 - i
		down[tuples[j]] = q[tuples[j]]
	}
	key := func(q profile.Index) string { return string(bagKey(request{op: opLookup, tau: 0.5}, q)) }
	if key(up) != key(q) || key(down) != key(q) {
		t.Fatal("bag key depends on map construction order")
	}
	more := q.Clone()
	more.Add(tuples[0])
	less := q.Clone()
	delete(less, tuples[len(tuples)-1])
	if key(more) == key(q) || key(less) == key(q) {
		t.Fatal("bag key ignores a count or a missing tuple")
	}
}

// TestAdmissionQueueShed fills the single in-flight slot and the
// one-deep wait queue deterministically, then proves the next arrival is
// shed with ErrOverloaded.
func TestAdmissionQueueShed(t *testing.T) {
	s, docs := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1}, 2)
	q0 := queryOf(t, s, docs[0])
	q1 := queryOf(t, s, docs[1])

	entered := make(chan struct{})
	release := make(chan struct{})
	var hookOnce sync.Once
	s.hookMiss = func() {
		hookOnce.Do(func() { close(entered); <-release })
	}

	done := make(chan error, 2)
	go func() { _, err := s.Lookup(q0, 0.5); done <- err }()
	<-entered // the slot holder missed the cache and holds its slot

	go func() { _, err := s.Lookup(q1, 0.5); done <- err }()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.queued.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want 1", s.adm.queued.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Slot busy, queue full: the third distinct request must be shed.
	if _, err := s.Lookup(q1, 0.9); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow request: err = %v, want ErrOverloaded", err)
	}
	if got := s.m.shed.Load(); got != 1 {
		t.Fatalf("serve_shed = %d, want 1", got)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
}

// TestAdmissionLatencyBudget drives the p95 window directly: a burst of
// over-budget samples starts shedding, and rotation recovers once the
// slow window ages out.
func TestAdmissionLatencyBudget(t *testing.T) {
	m := newTestMetrics()
	a := newAdmission(Config{P95Budget: time.Millisecond, BudgetWindow: 20 * time.Millisecond}.withDefaults(), m)

	if err := a.acquire(); err != nil {
		t.Fatalf("empty window must admit: %v", err)
	}
	a.release()
	for i := 0; i < 2*minWindowSamples; i++ {
		a.observe(10 * time.Millisecond)
	}
	if err := a.acquire(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("p95 over budget: err = %v, want ErrOverloaded", err)
	}
	st := a.stats().(AdmissionStats)
	if !st.Shedding || st.WindowP95NS <= st.BudgetNS {
		t.Fatalf("stats = %+v, want shedding with p95 > budget", st)
	}

	// Two rotations later the slow samples are gone from both cur and
	// prev, and admission resumes.
	deadline := time.Now().Add(5 * time.Second)
	for a.overBudget() {
		if time.Now().After(deadline) {
			t.Fatal("latency budget never recovered after the slow window aged out")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := a.acquire(); err != nil {
		t.Fatalf("recovered window must admit: %v", err)
	}
	a.release()
}

func newTestMetrics() serveMetrics {
	s := New(forest.New(profile.Default), nil, Config{}, nil)
	return s.m
}

// --- HTTP surface -------------------------------------------------------

func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// TestStatsReportsStore: /stats of a store-backed server carries the
// store's shape — the segment count the size-tiered merges hold down
// among it — and an in-memory server's has no "store" key.
func TestStatsReportsStore(t *testing.T) {
	st, err := store.CreateSegmentedFS(fsio.NewMemFS(), "idx.pqg", profile.Default)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetFlushThreshold(2)
	s := New(st.Forest(), st, Config{}, nil)
	for i := 0; i < 10; i++ {
		if w := do(t, s, "PUT", fmt.Sprintf("/docs/d%d", i), mustBody(t, gen.XMark(int64(i), 20))); w.Code != 200 {
			t.Fatalf("put %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	var stats struct {
		Docs  int                 `json:"docs"`
		Store *store.SegmentStats `json:"store"`
	}
	if err := json.Unmarshal(do(t, s, "GET", "/stats", "").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	// Five flushes of two documents: four merged into one, then one more.
	if want := st.Stats(); stats.Store == nil || *stats.Store != want || want.Segments != 2 || want.EvictedDocs != 10 {
		t.Fatalf("/stats store = %+v, want %+v with 2 segments", stats.Store, want)
	}
	mem, _ := newTestServer(t, Config{}, 2)
	if body := do(t, mem, "GET", "/stats", "").Body.String(); strings.Contains(body, `"store"`) {
		t.Fatalf("in-memory /stats reports a store: %s", body)
	}
}

func mustBody(t *testing.T, doc *tree.Tree) string {
	t.Helper()
	x, err := xmlconv.WriteString(doc)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestHTTPValidation(t *testing.T) {
	s, docs := newTestServer(t, Config{CacheSize: 8}, 2)
	xml := mustBody(t, docs[0])
	enc := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	// An edit feed whose result renumbers: deleting b from a(b c) leaves
	// a(c) with ids 1 and 3, which the parsed XML would number 1 and 2.
	const idsDoc = "<a><b/><c/></a>"
	working, err := xmlconv.ParseString(idsDoc, xmlconv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := edit.Del(2).Apply(working)
	if err != nil {
		t.Fatal(err)
	}
	edits := func(ids ...tree.NodeID) string {
		return enc(EditsRequest{XML: mustBody(t, working), IDs: ids, Log: []string{inv.String()}})
	}
	good := working.PreorderIDs()

	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"lookup ok", "POST", "/lookup", enc(LookupRequest{XML: xml, Tau: 0.5}), 200},
		{"lookup GET", "GET", "/lookup", "", 405},
		{"bad json", "POST", "/lookup", "{", 400},
		{"tau too big", "POST", "/lookup", enc(LookupRequest{XML: xml, Tau: 7}), 400},
		{"tau negative", "POST", "/lookup", enc(LookupRequest{XML: xml, Tau: -1}), 400},
		{"top too big", "POST", "/lookup", enc(LookupRequest{XML: xml, Top: maxTopK + 1}), 400},
		{"bad plan", "POST", "/lookup", `{"xml":"<a/>","tau":0.5,"plan":"quantum"}`, 200},
		{"good plan", "POST", "/lookup", `{"xml":"<a/>","tau":0.5,"plan":"pruned"}`, 200},
		{"bad xml", "POST", "/lookup", `{"xml":"<open","tau":0.5}`, 400},
		{"topk ok", "POST", "/topk", enc(TopKRequest{XML: xml, K: 2}), 200},
		{"k too big", "POST", "/topk", enc(TopKRequest{XML: xml, K: maxTopK + 1}), 400},
		{"k negative", "POST", "/topk", enc(TopKRequest{XML: xml, K: -3}), 400},
		{"topk bad plan", "POST", "/topk", `{"xml":"<a/>","k":1,"plan":""}`, 200},
		{"explain ok", "POST", "/explain", enc(ExplainRequest{XML: xml, Tau: 0.4}), 200},
		{"explain bad tau", "POST", "/explain", enc(ExplainRequest{XML: xml, Tau: 9e99}), 400},
		{"missing doc id", "PUT", "/docs/", "<a/>", 400},
		{"doc id too long", "PUT", "/docs/" + strings.Repeat("x", maxDocIDLen+1), "<a/>", 400},
		{"put ok", "PUT", "/docs/new", "<a><b/></a>", 200},
		{"delete ok", "DELETE", "/docs/new", "", 200},
		{"delete missing", "DELETE", "/docs/nope", "", 404},
		{"docs bad method", "POST", "/docs/new", "", 405},
		{"edits bad json", "POST", "/docs/doc-0/edits", "{", 400},
		{"edits bad log", "POST", "/docs/doc-0/edits", `{"xml":"<a/>","log":["garbage op"]}`, 400},
		{"edits unknown id", "POST", "/docs/nope/edits", `{"xml":"<a/>","log":[]}`, 404},
		{"edits op on a missing node", "POST", "/docs/doc-0/edits", `{"xml":"<a/>","log":["REN 99 x"]}`, 422},
		{"edits children out of range", "POST", "/docs/doc-0/edits", `{"xml":"<a/>","log":["INS 50 x 1 1 5"]}`, 422},
		{"put for ids", "PUT", "/docs/ids", idsDoc, 200},
		{"edits ids too few", "POST", "/docs/ids/edits", edits(good[0]), 400},
		{"edits id not positive", "POST", "/docs/ids/edits", edits(0, good[1]), 400},
		{"edits ids duplicate", "POST", "/docs/ids/edits", edits(good[1], good[1]), 400},
		{"edits with ids", "POST", "/docs/ids/edits", edits(good...), 200},
		{"stats", "GET", "/stats", "", 200},
		{"metrics", "GET", "/debug/metrics", "", 200},
		{"metrics prom", "GET", "/debug/metrics?format=prom", "", 200},
		{"trace", "GET", "/debug/trace?n=4", "", 200},
	}
	for _, tc := range cases {
		w := do(t, s, tc.method, tc.path, tc.body)
		if w.Code != tc.want {
			t.Errorf("%s: %s %s = %d, want %d (body %s)",
				tc.name, tc.method, tc.path, w.Code, tc.want, w.Body.String())
		}
		if w.Header().Get("X-Request-ID") == "" {
			t.Errorf("%s: missing X-Request-ID", tc.name)
		}
	}
}

// failingBackend is a store whose journal fails every write.
type failingBackend struct{ err error }

func (b failingBackend) Put(string, *tree.Tree) (int, error) { return 0, b.err }
func (b failingBackend) Remove(string) error                 { return b.err }
func (b failingBackend) Update(string, *tree.Tree, edit.Log) (core.Stats, error) {
	return core.Stats{}, b.err
}

// TestHTTPDeleteStoreFailureIs500: a DELETE whose store fails for any
// reason but a missing document is a server error, not "not found".
func TestHTTPDeleteStoreFailureIs500(t *testing.T) {
	f := forest.New(profile.Default)
	f.Put("doc", tree.MustParse("a(b c)"))
	s := New(f, failingBackend{fmt.Errorf("store: journal append: %w", syscall.EIO)}, Config{}, nil)
	if w := do(t, s, "DELETE", "/docs/doc", ""); w.Code != http.StatusInternalServerError {
		t.Fatalf("DELETE on a failing store = %d, want 500 (body %s)", w.Code, w.Body.String())
	}
}

// TestHTTPNoMatchIsEmptyArray: a query that matches nothing answers an
// empty JSON array on /lookup — τ = 0 can match nothing, lookups being
// strict d < τ, and neither can top-k over an empty index — and an empty
// "matches" array on /topk; never null.
func TestHTTPNoMatchIsEmptyArray(t *testing.T) {
	s, docs := newTestServer(t, Config{}, 2)
	empty, _ := newTestServer(t, Config{}, 0)
	xml := mustBody(t, docs[0])
	for _, tc := range []struct {
		name string
		s    *Server
		path string
		req  any
		want string
	}{
		{"lookup tau 0", s, "/lookup", LookupRequest{XML: xml}, "[]\n"},
		{"lookup top, empty index", empty, "/lookup", LookupRequest{XML: xml, Top: 3}, "[]\n"},
		{"topk, empty index", empty, "/topk", TopKRequest{XML: xml, K: 3}, `{"k":3,"matches":[]}` + "\n"},
	} {
		b, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if w := do(t, tc.s, "POST", tc.path, string(b)); w.Code != 200 || w.Body.String() != tc.want {
			t.Errorf("%s: POST %s = %d %q, want 200 %q", tc.name, tc.path, w.Code, w.Body.String(), tc.want)
		}
	}
}

func TestHTTPCacheHeaderAndRetryAfter(t *testing.T) {
	s, docs := newTestServer(t, Config{CacheSize: 8, MaxInFlight: 1, RetryAfter: 3 * time.Second}, 2)
	body, _ := json.Marshal(LookupRequest{XML: mustBody(t, docs[0]), Tau: 0.5})

	if w := do(t, s, "POST", "/lookup", string(body)); w.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first lookup X-Cache = %q, want miss", w.Header().Get("X-Cache"))
	}
	if w := do(t, s, "POST", "/lookup", string(body)); w.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat lookup X-Cache = %q, want hit", w.Header().Get("X-Cache"))
	}

	// Hold the only slot open and prove the HTTP mapping of a shed: 429
	// with the configured Retry-After.
	entered := make(chan struct{})
	release := make(chan struct{})
	var hookOnce sync.Once
	s.hookMiss = func() {
		hookOnce.Do(func() { close(entered); <-release })
	}
	other, _ := json.Marshal(LookupRequest{XML: mustBody(t, docs[1]), Tau: 0.5})
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- do(t, s, "POST", "/lookup", string(other)) }()
	<-entered

	w := do(t, s, "POST", "/lookup", `{"xml":"<a/>","tau":0.9}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("shed request = %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	close(release)
	if w := <-done; w.Code != 200 {
		t.Fatalf("slot holder = %d, want 200", w.Code)
	}
}

// maxHitAllocs is the allocation ceiling of a cache hit served through
// ServeHTTP: the middleware's request ID, status writer, body bound and
// log line, the body's buffer, the three response headers, the reply's
// encoder and the recorder's body. 17.5 to 17.6 were measured with Go 1.24,
// against 28.6 when a hit decoded its body. A JSON decode or an XML
// parse would exceed it.
const maxHitAllocs = 20

// TestHTTPHitDoesNotParse pins that a cache hit is a probe on the
// request's bytes: repeating one ≥ 200-node lookup through ServeHTTP
// allocates less than a tenth of what the same request costs on a
// cache-off server, which decodes the body, streams the bag and
// traverses the postings. Without the race detector, whose
// instrumentation allocates on its own, a hit also allocates at most
// maxHitAllocs times and fewer than twice the body's bytes: the body's
// own buffer, and no decoder buffer or XML string beside it.
func TestHTTPHitDoesNotParse(t *testing.T) {
	doc := gen.DBLP(11, 300)
	if doc.Size() < 200 {
		t.Fatalf("query has %d nodes, want at least 200", doc.Size())
	}
	b, err := json.Marshal(LookupRequest{XML: mustBody(t, doc), Tau: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)
	cold, _ := newTestServer(t, Config{}, 4)
	hot, _ := newTestServer(t, Config{CacheSize: 8}, 4)
	if w := do(t, hot, "POST", "/lookup", body); w.Code != 200 {
		t.Fatalf("warm-up lookup = %d: %s", w.Code, w.Body.String())
	}
	miss := testing.AllocsPerRun(20, func() { do(t, cold, "POST", "/lookup", body) })
	const runs = 64
	reqs := make([]*http.Request, runs)
	ws := make([]*httptest.ResponseRecorder, runs)
	for i := range reqs {
		reqs[i], ws[i] = httptest.NewRequest("POST", "/lookup", strings.NewReader(body)), httptest.NewRecorder()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range reqs {
		hot.ServeHTTP(ws[i], reqs[i])
	}
	runtime.ReadMemStats(&after)
	for _, w := range ws {
		if w.Code != 200 || w.Header().Get("X-Cache") != "hit" {
			t.Fatalf("repeat lookup = %d, X-Cache %q, want a 200 hit", w.Code, w.Header().Get("X-Cache"))
		}
	}
	hit := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("a hit allocates %.1f times, %.0f bytes, for a %d-byte body; a cache-off request %.0f times", hit, bytes, len(body), miss)
	if hit*10 >= miss {
		t.Fatalf("a hit allocates %.1f times, a cache-off request %.0f: want hit < miss/10", hit, miss)
	}
	if raceEnabled {
		return
	}
	if hit > maxHitAllocs || bytes >= 2*float64(len(body)) {
		t.Fatalf("a hit allocates %.1f times and %.0f bytes: want at most %d times and fewer than twice the %d-byte body",
			hit, bytes, maxHitAllocs, len(body))
	}
}

// TestHTTPCacheKeysOnQueryBytes: the cache key is the request body as
// read, under its endpoint. Any byte-different body — the document
// spelled otherwise, the same JSON spelled otherwise, trailing bytes — is
// a miss with an identical answer, and so is the same body sent to the
// other endpoint that reads it. A body that could not be read in full is
// never cached, and malformed XML is a 400 even while a valid query at
// the same τ is cached.
func TestHTTPCacheKeysOnQueryBytes(t *testing.T) {
	s, docs := newTestServer(t, Config{CacheSize: 16, MaxBodyBytes: 1 << 12}, 3)
	xml := mustBody(t, docs[0])
	if len(xml) > 1<<12-64 {
		t.Fatalf("query document of %d bytes does not fit the body bound", len(xml))
	}
	enc := func(xml string) string {
		b, err := json.Marshal(LookupRequest{XML: xml, Tau: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	first := do(t, s, "POST", "/lookup", enc(xml))
	if first.Code != 200 || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("lookup = %d, X-Cache %q: %s", first.Code, first.Header().Get("X-Cache"), first.Body.String())
	}
	swapped, _ := json.Marshal(map[string]any{"tau": 0.5, "xml": xml}) // "tau" first
	topAsK := fmt.Sprintf(`{"xml":%q,"top":3}`, xml)
	for _, tc := range []struct{ name, path, body string }{
		{"whitespace-padded query", "/lookup", enc("\n" + xml + "\n")},
		{"fields in the other order", "/lookup", string(swapped)},
		{"trailing bytes", "/lookup", enc(xml) + " "},
		{"top-k via /lookup", "/lookup", topAsK},
		{"the same body on /topk", "/topk", topAsK},
	} {
		var want string
		for pass, cache := range []string{"miss", "hit"} {
			w := do(t, s, "POST", tc.path, tc.body)
			if got := w.Header().Get("X-Cache"); w.Code != 200 || got != cache {
				t.Fatalf("%s pass %d = %d, X-Cache %q, want 200 %s", tc.name, pass, w.Code, got, cache)
			}
			if want == "" {
				want = w.Body.String()
			}
			if w.Body.String() != want {
				t.Fatalf("%s pass %d answered %s, then %s", tc.name, pass, want, w.Body.String())
			}
		}
		if tc.path == "/lookup" && !strings.Contains(tc.body, `"top"`) && want != first.Body.String() {
			t.Fatalf("%s answered %s, want %s", tc.name, want, first.Body.String())
		}
	}
	// A body past the bound whose value ends inside it is answered, and
	// never cached.
	long := enc(xml) + strings.Repeat(" ", 1<<12)
	for pass := 0; pass < 2; pass++ {
		w := do(t, s, "POST", "/lookup", long)
		if w.Code != 200 || w.Header().Get("X-Cache") != "miss" || w.Body.String() != first.Body.String() {
			t.Fatalf("pass %d: over-long body = %d, X-Cache %q, %s; want a 200 miss answering %s",
				pass, w.Code, w.Header().Get("X-Cache"), w.Body.String(), first.Body.String())
		}
	}
	for pass := 0; pass < 2; pass++ {
		w := do(t, s, "POST", "/lookup", enc(xml[:len(xml)/2]))
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "bad query document") {
			t.Fatalf("pass %d: truncated query = %d %s, want 400 bad query document", pass, w.Code, w.Body.String())
		}
	}
}
