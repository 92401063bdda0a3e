// Server is a guided tour of the HTTP document-similarity service backed
// by an incrementally maintained pq-gram forest index — the deployment
// shape the paper targets: documents change through edit feeds, the index
// follows the feed, and approximate lookups stay fast because nothing is
// rebuilt.
//
// The entire HTTP surface — and the serving tier behind it: the
// epoch-invalidated result cache and admission control — is
// internal/serve (endpoints: internal/serve/http.go). This example serves
// it from an in-memory index on a random loopback port, exercises every
// endpoint with generated data, prints the results, and exits. It is not a
// server to deploy: that is cmd/pqserve, the one binary that assembles
// persistence, admission control and shutdown.
//
// Every response carries a request ID in X-Request-ID; lookups additionally
// carry an X-Cache header (hit or miss).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"strings"

	"pqgram"
	"pqgram/internal/gen" // demo data generation only
	"pqgram/internal/serve"
)

func main() {
	// The collector observes every layer: the forest's op counters and
	// latency histograms, the serving tier, the HTTP front end, and
	// (process-globally) the profiling metrics of query-index construction.
	col := pqgram.NewCollector()
	pqgram.SetProfileCollector(col)
	f := pqgram.NewForest(pqgram.DefaultParams)
	f.SetCollector(col)
	runDemo(serve.New(f, nil, serve.Config{CacheSize: 1024}, col))
}

func runDemo(h http.Handler) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	//pqlint:allow goroutinecheck demo server: serves until the process exits with main
	go http.Serve(ln, h)
	base := "http://" + ln.Addr().String()
	// call performs one request and returns the response headers and
	// body; anything but 200 ends the demo.
	call := func(method, path string, body []byte) (http.Header, []byte) {
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
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, raw)
		}
		return resp.Header, raw
	}
	client := func(method, path string, body []byte) map[string]any {
		_, raw := call(method, path, body)
		var out map[string]any
		json.Unmarshal(raw, &out)
		return out
	}

	// Index three generated documents.
	rng := rand.New(rand.NewSource(1))
	base0 := gen.DBLP(1, 400)
	for i, doc := range []*pqgram.Tree{base0, mustPerturb(rng, base0, 6), gen.DBLP(9, 400)} {
		out := client("PUT", fmt.Sprintf("/docs/doc-%d", i), []byte(mustXML(doc)))
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
		hdr, raw := call("POST", "/lookup", lb)
		matches = nil
		json.Unmarshal(raw, &matches)
		xCache = append(xCache, hdr.Get("X-Cache"))
	}
	fmt.Printf("nearest documents to the noisy copy of doc-0 (X-Cache: %s):\n",
		strings.Join(xCache, " then "))
	for _, m := range matches {
		fmt.Printf("  %-8s %.3f\n", m.TreeID, m.Distance)
	}

	// Ask for the two nearest neighbours.
	tb, _ := json.Marshal(serve.TopKRequest{XML: mustXML(query), K: 2})
	tout := client("POST", "/topk", tb)
	fmt.Printf("top-%v via /topk:\n", tout["k"])
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
	var ring []pqgram.TraceSnapshot
	_, traw := call("GET", "/debug/trace?n=4", nil)
	json.Unmarshal(traw, &ring)
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
	_, prom := call("GET", "/debug/metrics?format=prom", nil)
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
	out, _, err := gen.Perturb(rng, t, n, gen.XMLSafeMix)
	if err != nil {
		log.Fatal(err)
	}
	return out
}
