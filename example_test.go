package pqgram_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"pqgram"
)

func ExampleDiff() {
	v1 := pqgram.MustParseTree("cfg(db(host port) cache(ttl))")
	v2 := pqgram.MustParseTree("cfg(db(host port user) cache(ttl) audit)")

	script, invLog, err := pqgram.Diff(v1, v2) // v1 becomes v2
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("minimal script:")
	for _, op := range script {
		fmt.Println(" ", op)
	}
	fmt.Println("log entries:", len(invLog))
	// Output:
	// minimal script:
	//   INS 7 user 2 3 2
	//   INS 8 audit 1 3 2
	// log entries: 2
}

func ExampleOptimizeLog() {
	doc := pqgram.MustParseTree("a(b c)")
	var invLog pqgram.Log
	// A churned edit feed: a node renamed three times.
	for _, op := range []pqgram.Op{
		pqgram.Rename(2, "x"), pqgram.Rename(2, "y"), pqgram.Rename(2, "z"),
	} {
		inv, _ := op.Apply(doc)
		invLog = append(invLog, inv)
	}
	opt := pqgram.OptimizeLog(doc, invLog)
	fmt.Printf("%d entries collapse to %d: %v\n", len(invLog), len(opt), opt[0])
	// Output:
	// 3 entries collapse to 1: REN 2 b
}

func ExampleForest_SimilarityJoin() {
	f := pqgram.NewForest(pqgram.DefaultParams)
	f.Add("a1", pqgram.MustParseTree("r(x y z)"))
	f.Add("a2", pqgram.MustParseTree("r(x y w)"))
	f.Add("b1", pqgram.MustParseTree("q(m(n) o)"))

	for _, p := range f.SimilarityJoin(0.7, 0) {
		fmt.Printf("%s ~ %s (%.2f)\n", p.A, p.B, p.Distance)
	}
	// Output:
	// a1 ~ a2 (0.50)
}

func ExampleDistanceUnordered() {
	a := pqgram.MustParseTree("cfg(logging db cache)")
	b := pqgram.MustParseTree("cfg(cache db logging)") // same fields, shuffled
	fmt.Printf("ordered:   %.2f\n", pqgram.Distance(a, b, pqgram.DefaultParams))
	fmt.Printf("unordered: %.2f\n", pqgram.DistanceUnordered(a, b, pqgram.DefaultParams))
	// Output:
	// ordered:   0.62
	// unordered: 0.00
}

func ExampleParseJSON() {
	v1, _ := pqgram.ParseJSONString(`{"db": {"host": "a"}, "ttl": 60}`)
	v2, _ := pqgram.ParseJSONString(`{"ttl": 60, "db": {"host": "a"}}`) // reordered
	v3, _ := pqgram.ParseJSONString(`{"db": {"host": "b"}, "ttl": 5}`)
	p := pqgram.DefaultParams
	fmt.Printf("reordered members: %.2f\n", pqgram.Distance(v1, v2, p))
	fmt.Printf("changed values:    %.2f\n", pqgram.Distance(v1, v3, p))
	// Output:
	// reordered members: 0.00
	// changed values:    0.44
}

func ExampleStreamIndexXML() {
	// Index straight from the token stream — no tree in memory.
	xml := `<dblp><article><title>t</title></article></dblp>`
	idx, err := pqgram.StreamIndexXML(strings.NewReader(xml), pqgram.XMLOptions{}, pqgram.DefaultParams)
	if err != nil {
		log.Fatal(err)
	}
	doc, _ := pqgram.ParseXMLString(xml)
	same := idx.Equal(pqgram.BuildIndex(doc, pqgram.DefaultParams))
	fmt.Println("equals tree-based build:", same)
	// Output:
	// equals tree-based build: true
}

func ExampleCreateStore() {
	path := filepath.Join(exampleTempDir(), "corpus.pqg")
	st, err := pqgram.CreateStore(path, pqgram.DefaultParams)
	if err != nil {
		log.Fatal(err)
	}
	doc := pqgram.MustParseTree("r(a b c)")
	st.Add("doc", doc)

	// An incremental update persists only its delta record.
	inv, _ := pqgram.Rename(2, "z").Apply(doc)
	st.Update("doc", doc, pqgram.Log{inv})
	st.Close()

	// Reopen: base + journal replay.
	st2, err := pqgram.OpenStore(path)
	if err != nil {
		log.Fatal(err)
	}
	defer st2.Close()
	fmt.Println("recovered docs:", st2.Forest().Len())
	fmt.Println("index current:", st2.Forest().TreeIndex("doc").Equal(
		pqgram.BuildIndex(doc, pqgram.DefaultParams)))
	// Output:
	// recovered docs: 1
	// index current: true
}

// exampleTempDir gives examples a writable scratch directory.
func exampleTempDir() string {
	d, err := os.MkdirTemp("", "pqgram-example-*")
	if err != nil {
		log.Fatal(err)
	}
	return d
}
