// Server runs a small HTTP document-similarity service backed by an
// incrementally maintained pq-gram forest index — the deployment shape the
// paper targets: documents change through edit feeds, the index follows
// the feed, and approximate lookups stay fast because nothing is rebuilt.
//
// The entire HTTP surface — and the serving tier behind it: request
// batching, the epoch-invalidated result cache, admission control — is
// internal/serve; this example only assembles the index and walks the API.
// cmd/pqserve is the production binary over the same tier, so the demo and
// the deployed service cannot drift.
//
// Endpoints (JSON unless noted):
//
//	PUT    /docs/{id}          body: XML           index a document
//	DELETE /docs/{id}                              drop a document
//	POST   /docs/{id}/edits    {"xml","ids","log"} incremental update
//	POST   /lookup             {"xml","tau","top"} approximate lookup
//	POST   /topk               {"xml","k"}         k nearest via the metric index
//	POST   /explain            {"xml","tau","k"}   run a query traced; plan + work counters
//	GET    /stats                                  index + serving-tier statistics
//	GET    /debug/metrics                          live metrics snapshot (?format=prom for Prometheus text)
//	GET    /debug/trace[?n=16]                     most recent query traces from the ring buffer
//	GET    /debug/vars                             expvar (includes "pqgram")
//	GET    /debug/pprof/...                        CPU/heap/goroutine profiles
//
// Every request is logged (structured, via slog) with a request ID that is
// echoed back in the X-Request-ID response header; lookups additionally
// carry an X-Cache header (hit, miss or shared). Run without arguments to
// start on :8080; with -demo the process starts the server on a random
// port, exercises every endpoint with generated data, prints the results,
// and exits.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"

	"pqgram"
	"pqgram/internal/gen" // demo data generation only
	"pqgram/internal/profile"
	"pqgram/internal/serve"
	"pqgram/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	demo := flag.Bool("demo", false, "self-exercise the API and exit")
	quiet := flag.Bool("quiet", false, "suppress per-request logging")
	index := flag.String("index", "", "back the service with a persistent store at this path (journaled; survives restarts)")
	syncWrites := flag.Bool("sync", false, "with -index: fsync every journaled mutation before acknowledging it")
	flushEvery := flag.Int("flush-every", 4096, "with -index: flush the memtable to a segment after this many dirty documents (0 = never automatically)")
	plan := flag.String("plan", "auto", "query planner mode: auto, exhaustive, pruned or metric")
	cache := flag.Int("cache", 1024, "result-cache capacity in entries (0 disables)")
	flag.Parse()

	planModes := map[string]pqgram.PlanMode{
		"auto": pqgram.PlanAuto, "exhaustive": pqgram.PlanExhaustive,
		"pruned": pqgram.PlanPruned, "metric": pqgram.PlanMetric,
	}
	planMode, ok := planModes[*plan]
	if !ok {
		log.Fatalf("unknown -plan %q (want auto, exhaustive, pruned or metric)", *plan)
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *quiet || *demo {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}

	// The collector observes every layer: the forest's op counters and
	// latency histograms, the serving tier, the HTTP front end, and
	// (process-globally) the profiling metrics of query-index construction.
	col := pqgram.NewCollector()
	col.SetLogger(logger)
	pqgram.SetProfileCollector(col)

	// With -index, mutations are journaled through a durable store and the
	// server answers queries from its recovered forest (mutated documents
	// spill into immutable segment files every -flush-every writes);
	// without it the index lives only in memory.
	var f *pqgram.Forest
	var backend serve.Backend
	if *index != "" {
		st, err := store.OpenOrCreate(*index, profile.Default)
		if err != nil {
			log.Fatalf("opening index %s: %v", *index, err)
		}
		defer st.Close()
		st.SetSync(*syncWrites)
		st.SetFlushThreshold(*flushEvery)
		st.SetCollector(col)
		r, ss := st.Recovery(), st.Stats()
		logger.Info("index opened", "path", *index,
			"docs", st.Forest().Len(),
			"segments", ss.Segments,
			"replayed_records", r.Records,
			"torn_bytes", r.TornBytes,
			"skipped_records", r.SkippedRecords,
			"stale_journal", r.StaleJournal)
		f = st.Forest()
		backend = st
	} else {
		f = pqgram.NewForest(pqgram.DefaultParams)
		f.SetCollector(col)
	}

	f.SetPlanMode(planMode)

	srv := serve.New(f, backend, serve.Config{CacheSize: *cache, Logger: logger}, col)
	if !*demo {
		log.Printf("pq-gram index service listening on %s", *addr)
		log.Fatal(http.ListenAndServe(*addr, srv))
	}
	// The demo showcases the metric path: /topk descends the VP-tree.
	f.SetPlanMode(pqgram.PlanMetric)
	runDemo(srv)
}

// --- demo driver ----------------------------------------------------------

func runDemo(h http.Handler) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	//pqlint:allow goroutinecheck demo server: serves until the process exits with main
	go http.Serve(ln, h)
	base := "http://" + ln.Addr().String()
	client := func(method, path string, body []byte) map[string]any {
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var out map[string]any
		json.Unmarshal(raw, &out)
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, raw)
		}
		return out
	}

	// Index three generated documents.
	rng := rand.New(rand.NewSource(1))
	base0 := gen.DBLP(1, 400)
	for i, doc := range []*pqgram.Tree{base0, mustPerturb(rng, base0, 6), gen.DBLP(9, 400)} {
		xml, err := pqgram.WriteXMLString(doc)
		if err != nil {
			log.Fatal(err)
		}
		out := client("PUT", fmt.Sprintf("/docs/doc-%d", i), []byte(xml))
		fmt.Printf("indexed doc-%d: %v nodes, %v pq-grams\n", i, out["nodes"], out["pqgrams"])
	}

	// Edit doc-0 through the feed endpoint: serialize the edited state,
	// its identities and the log.
	working, err := pqgram.ParseXMLString(mustXML(base0))
	if err != nil {
		log.Fatal(err)
	}
	var lines []string
	for _, op := range []pqgram.Op{pqgram.Rename(3, "@key=renamed/0"), pqgram.Delete(5)} {
		inv, err := op.Apply(working)
		if err != nil {
			log.Fatal(err)
		}
		lines = append(lines, inv.String())
	}
	body, _ := json.Marshal(serve.EditsRequest{
		XML: mustXML(working),
		IDs: working.PreorderIDs(),
		Log: lines,
	})
	out := client("POST", "/docs/doc-0/edits", body)
	fmt.Printf("updated doc-0 incrementally: +%v −%v pq-grams in %vµs\n",
		out["added"], out["removed"], out["micros"])

	// Look up a noisy copy of doc-0 — twice, to show the result cache:
	// the repeat answers from the cache without touching the postings.
	query := mustPerturb(rng, working, 4)
	lb, _ := json.Marshal(serve.LookupRequest{XML: mustXML(query), Top: 3})
	var matches []pqgram.Match
	var xCache []string
	for i := 0; i < 2; i++ {
		req, _ := http.NewRequest("POST", base+"/lookup", bytes.NewReader(lb))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		matches = nil
		json.NewDecoder(resp.Body).Decode(&matches)
		resp.Body.Close()
		xCache = append(xCache, resp.Header.Get("X-Cache"))
	}
	fmt.Printf("nearest documents to the noisy copy of doc-0 (X-Cache: %s):\n",
		strings.Join(xCache, " then "))
	for _, m := range matches {
		fmt.Printf("  %-8s %.3f\n", m.TreeID, m.Distance)
	}

	// Ask the metric endpoint for the two nearest neighbours; the demo
	// forest runs in metric mode, so this descends the VP-tree.
	tb, _ := json.Marshal(serve.TopKRequest{XML: mustXML(query), K: 2})
	tout := client("POST", "/topk", tb)
	fmt.Printf("top-%v via /topk (metric index built: %v):\n", tout["k"], tout["metric"])
	if ms, ok := tout["matches"].([]any); ok {
		for _, m := range ms {
			if mm, ok := m.(map[string]any); ok {
				fmt.Printf("  %-8s %.3f\n", mm["TreeID"], mm["Distance"])
			}
		}
	}

	// Explain the same query: which plan ran and how much work each stage
	// did. The trace lands in the ring buffer, correlated by request ID.
	eb, _ := json.Marshal(serve.ExplainRequest{XML: mustXML(query), K: 2})
	eout := client("POST", "/explain", eb)
	if ex, ok := eout["explain"].(map[string]any); ok {
		fmt.Printf("explain (id %v): op=%v plan=%v\n", eout["id"], ex["op"], ex["plan"])
	}
	tresp, err := http.Get(base + "/debug/trace?n=4")
	if err != nil {
		log.Fatal(err)
	}
	var ring []pqgram.TraceSnapshot
	json.NewDecoder(tresp.Body).Decode(&ring)
	tresp.Body.Close()
	if len(ring) > 0 {
		fmt.Printf("trace ring holds %d recent traces, newest %q (id %v)\n",
			len(ring), ring[0].Root.Name, ring[0].ID)
	}

	stats := client("GET", "/stats", nil)
	fmt.Printf("stats: %v docs, %v pq-grams (p=%v q=%v)\n",
		stats["docs"], stats["pqgrams"], stats["p"], stats["q"])

	// The instrumentation saw all of the above: print a few live counters
	// from the metrics endpoint, including the serving tier's.
	metrics := client("GET", "/debug/metrics", nil)
	if counters, ok := metrics["counters"].(map[string]any); ok {
		fmt.Printf("metrics: %v lookups, %v updates, %v puts, %v http requests\n",
			counters["forest_lookups"], counters["forest_updates"],
			counters["forest_puts"], counters["http_requests"])
		fmt.Printf("serving tier: %v served, %v cache hits, %v misses\n",
			counters["serve_requests"], counters["serve_cache_hit"],
			counters["serve_cache_miss"])
	}
	if hists, ok := metrics["histograms"].(map[string]any); ok {
		if h, ok := hists["forest_lookup_ns"].(map[string]any); ok {
			fmt.Printf("lookup latency: p50=%vns p99=%vns\n", h["p50"], h["p99"])
		}
	}
	presp, err := http.Get(base + "/debug/metrics?format=prom")
	if err != nil {
		log.Fatal(err)
	}
	prom, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	fmt.Printf("prometheus exposition: %d bytes, %d families\n",
		len(prom), bytes.Count(prom, []byte("# TYPE")))
}

func mustXML(t *pqgram.Tree) string {
	s, err := pqgram.WriteXMLString(t)
	if err != nil {
		log.Fatal(err)
	}
	return s
}

func mustPerturb(rng *rand.Rand, t *pqgram.Tree, n int) *pqgram.Tree {
	mix := gen.XMLSafeMix
	out, _, err := gen.Perturb(rng, t, n, mix)
	if err != nil {
		log.Fatal(err)
	}
	return out
}
