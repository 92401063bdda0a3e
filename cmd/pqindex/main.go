// Command pqindex builds, maintains and queries persistent pq-gram indexes
// over XML documents.
//
// Usage:
//
//	pqindex build  -index idx.pqg [-p 3 -q 3] [-workers 8] [-flush-every 1000] doc1.xml doc2.xml ...
//	pqindex add    -index idx.pqg doc.xml
//	pqindex remove -index idx.pqg -id doc.xml
//	pqindex update -index idx.pqg -id doc.xml -log changes.log doc-new.xml
//	pqindex lookup -index idx.pqg [-tau 0.5 | -top 5] query.xml [more.xml ...]
//	pqindex explain -index idx.pqg {-tau 0.5 | -k 5} [-plan auto] [-timings] [-json] query.xml
//	pqindex dist   a.xml b.xml [-p 3 -q 3]
//	pqindex info   -index idx.pqg
//	pqindex compact -index idx.pqg
//
// Documents are identified by the file path given at build/add time. The
// update subcommand implements the paper's scenario: the index is
// maintained from the old index, the new document and the log of inverse
// edit operations — the old document is not needed.
//
// The index path names a store (memtable + write-ahead journal +
// immutable segment files; see STORAGE.md): idx.pqg.manifest,
// idx.pqg.wal and idx.pqg.NNNNNN.seg. `build` leaves every document in
// segment files; later mutations are journaled and stay resident until
// `compact` merges everything into one segment again.
//
// The build, update, lookup and join subcommands accept -stats, which
// attaches the metrics collector and prints an op report (counters, latency
// quantiles, stripe-load distribution) to stderr when the command finishes.
package main

import (
	"flag"
	"fmt"
	"os"

	"pqgram"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "build":
		err = runBuild(args)
	case "add":
		err = runAdd(args)
	case "remove":
		err = runRemove(args)
	case "update":
		err = runUpdate(args)
	case "lookup":
		err = runLookup(args)
	case "explain":
		err = runExplain(args)
	case "join":
		err = runJoin(args)
	case "dist":
		err = runDist(args)
	case "diff":
		err = runDiff(args)
	case "info":
		err = runInfo(args)
	case "compact":
		err = runCompact(args)
	case "verify":
		err = runVerify(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pqindex:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pqindex {build|add|remove|update|lookup|explain|join|dist|diff|info|compact|verify} [flags] [files]")
	os.Exit(2)
}

// runCompact merges the memtable and every segment into one segment and
// empties the write-ahead journal.
func runCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	idxPath := fs.String("index", "", "index file")
	fs.Parse(args)
	if *idxPath == "" {
		return fmt.Errorf("compact needs -index")
	}
	st, err := pqgram.OpenStore(*idxPath)
	if err != nil {
		return err
	}
	defer st.Close()
	before, _ := st.JournalSize()
	if err := st.Compact(); err != nil {
		return err
	}
	after, _ := st.JournalSize()
	fmt.Printf("compacted: journal %d -> %d bytes\n", before, after)
	ss := st.Stats()
	fmt.Printf("segments merged: now %d (%d bytes)\n", ss.Segments, ss.SegmentBytes)
	return nil
}

// runVerify opens the store (exercising checksums and journal recovery)
// and checks the in-memory index's internal consistency.
func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	idxPath := fs.String("index", "", "index file")
	fs.Parse(args)
	if *idxPath == "" {
		return fmt.Errorf("verify needs -index")
	}
	st, err := pqgram.OpenStore(*idxPath)
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.Forest().SelfCheck(); err != nil {
		return err
	}
	printRecovery(st.Recovery())
	fmt.Printf("ok: %d trees, %d pq-grams, postings consistent\n",
		st.Forest().Len(), st.Forest().Size())
	return nil
}

// printRecovery reports what OpenStore had to repair; silent when the
// journal was clean so healthy runs stay noise-free.
func printRecovery(r pqgram.RecoveryInfo) {
	if r.Records > 0 {
		fmt.Printf("recovery: replayed %d journal records (%d bytes)\n", r.Records, r.Bytes)
	}
	if r.TornBytes > 0 {
		fmt.Printf("recovery: dropped %d torn trailing bytes (interrupted append)\n", r.TornBytes)
	}
	if r.SkippedRecords > 0 {
		fmt.Printf("recovery: skipped %d records with failed checksums\n", r.SkippedRecords)
	}
	if r.StaleJournal {
		fmt.Printf("recovery: discarded stale journal (%d bytes already folded into the segments)\n", r.DiscardedBytes)
	}
	if r.JournalReset {
		fmt.Printf("recovery: reset unrecognized journal (%d bytes discarded)\n", r.DiscardedBytes)
	}
}

func parseDoc(path string) (*pqgram.Tree, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	t, err := pqgram.ParseXML(fh)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	idxPath := fs.String("index", "", "index file to create")
	p := fs.Int("p", 3, "pq-gram parameter p")
	q := fs.Int("q", 3, "pq-gram parameter q")
	workers := fs.Int("workers", 0, "parallel profiling workers (0 = GOMAXPROCS)")
	flushEvery := fs.Int("flush-every", 0, "flush to a segment after this many documents (0 = one segment at the end)")
	stats := fs.Bool("stats", false, "print an op report (metrics snapshot) to stderr when done")
	fs.Parse(args)
	if *idxPath == "" || fs.NArg() == 0 {
		return fmt.Errorf("build needs -index and at least one document")
	}
	st, err := pqgram.CreateStore(*idxPath, pqgram.Params{P: *p, Q: *q})
	if err != nil {
		return err
	}
	defer st.Close()
	st.SetFlushThreshold(*flushEvery)
	var col *pqgram.Collector
	if *stats {
		col = attachStats(st)
		defer maybeReport(*stats, col)
	}
	docs := make([]pqgram.Doc, 0, fs.NArg())
	for _, path := range fs.Args() {
		t, err := parseDoc(path)
		if err != nil {
			return err
		}
		docs = append(docs, pqgram.Doc{ID: path, Tree: t})
	}
	// Bulk build: documents are profiled concurrently, then merged into
	// the sharded index.
	if err := st.AddAll(docs, *workers); err != nil {
		return err
	}
	for _, d := range docs {
		grams, _, _ := st.Forest().TreeStats(d.ID)
		fmt.Printf("indexed %s (%d nodes, %d pq-grams)\n", d.ID, d.Tree.Size(), grams)
	}
	// Spill whatever the flush threshold left resident; the journal
	// empties and every document is segment-served.
	if err := st.Flush(); err != nil {
		return err
	}
	ss := st.Stats()
	fmt.Printf("segments: %d (%d bytes)\n", ss.Segments, ss.SegmentBytes)
	return nil
}

func runAdd(args []string) error {
	fs := flag.NewFlagSet("add", flag.ExitOnError)
	idxPath := fs.String("index", "", "index file")
	fs.Parse(args)
	if *idxPath == "" || fs.NArg() != 1 {
		return fmt.Errorf("add needs -index and exactly one document")
	}
	st, err := pqgram.OpenStore(*idxPath)
	if err != nil {
		return err
	}
	defer st.Close()
	path := fs.Arg(0)
	t, err := parseDoc(path)
	if err != nil {
		return err
	}
	if err := st.Add(path, t); err != nil {
		return err
	}
	fmt.Printf("indexed %s (%d nodes)\n", path, t.Size())
	return nil
}

func runRemove(args []string) error {
	fs := flag.NewFlagSet("remove", flag.ExitOnError)
	idxPath := fs.String("index", "", "index file")
	id := fs.String("id", "", "document id to remove")
	fs.Parse(args)
	if *idxPath == "" || *id == "" {
		return fmt.Errorf("remove needs -index and -id")
	}
	st, err := pqgram.OpenStore(*idxPath)
	if err != nil {
		return err
	}
	defer st.Close()
	return st.Remove(*id)
}

func runUpdate(args []string) error {
	fs := flag.NewFlagSet("update", flag.ExitOnError)
	idxPath := fs.String("index", "", "index file")
	id := fs.String("id", "", "document id to update (defaults to the document path)")
	logPath := fs.String("log", "", "log of inverse edit operations (pqgram text format)")
	idsPath := fs.String("ids", "", "node-id sidecar of the resulting document (default <doc>.ids)")
	opStats := fs.Bool("stats", false, "print an op report (metrics snapshot) to stderr when done")
	fs.Parse(args)
	if *idxPath == "" || *logPath == "" || fs.NArg() != 1 {
		return fmt.Errorf("update needs -index, -log and the resulting document")
	}
	docPath := fs.Arg(0)
	if *id == "" {
		*id = docPath
	}
	if *idsPath == "" {
		*idsPath = docPath + ".ids"
	}
	st, err := pqgram.OpenStore(*idxPath)
	if err != nil {
		return err
	}
	defer st.Close()
	if *opStats {
		defer maybeReport(*opStats, attachStats(st))
	}
	tn, err := parseDoc(docPath)
	if err != nil {
		return err
	}
	// Restore the node identities the log refers to (XML does not carry
	// them). Without the sidecar, parse-order identities are assumed.
	if idsFile, err := os.Open(*idsPath); err == nil {
		err2 := pqgram.ApplyXMLIDs(idsFile, tn)
		idsFile.Close()
		if err2 != nil {
			return fmt.Errorf("%s: %w", *idsPath, err2)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	lf, err := os.Open(*logPath)
	if err != nil {
		return err
	}
	ops, err := pqgram.ReadLog(lf)
	lf.Close()
	if err != nil {
		return err
	}
	stats, err := st.Update(*id, tn, ops)
	if err != nil {
		return err
	}
	js, _ := st.JournalSize()
	fmt.Printf("updated %s: %d log entries, |Δ⁺|=%d |Δ⁻|=%d in %v (journal now %d bytes)\n",
		*id, len(ops), stats.PlusGrams, stats.MinusGrams, stats.Total, js)
	return nil
}

func runLookup(args []string) error {
	fs := flag.NewFlagSet("lookup", flag.ExitOnError)
	idxPath := fs.String("index", "", "index file")
	tau := fs.Float64("tau", 0, "distance threshold (results with dist < tau)")
	top := fs.Int("top", 0, "return the k nearest documents instead of thresholding")
	workers := fs.Int("workers", 0, "parallel lookup workers for multiple queries (0 = GOMAXPROCS)")
	stats := fs.Bool("stats", false, "print an op report (metrics snapshot) to stderr when done")
	fs.Parse(args)
	if *idxPath == "" || fs.NArg() == 0 || (*tau <= 0) == (*top <= 0) {
		return fmt.Errorf("lookup needs -index, at least one query document, and exactly one of -tau/-top")
	}
	st, err := pqgram.OpenStore(*idxPath)
	if err != nil {
		return err
	}
	defer st.Close()
	if *stats {
		defer maybeReport(*stats, attachStats(st))
	}
	f := st.Forest()
	queries := make([]*pqgram.Tree, fs.NArg())
	for i, path := range fs.Args() {
		if queries[i], err = parseDoc(path); err != nil {
			return err
		}
	}
	var results [][]pqgram.Match
	if *top > 0 {
		results = make([][]pqgram.Match, len(queries))
		for i, q := range queries {
			results[i] = f.LookupTopK(q, *top)
		}
	} else {
		// Batched lookup: queries are profiled and matched concurrently.
		results = f.LookupMany(queries, *tau, *workers)
	}
	for i, matches := range results {
		if len(queries) > 1 {
			fmt.Printf("%s:\n", fs.Arg(i))
		}
		for _, m := range matches {
			fmt.Printf("%.4f  %s\n", m.Distance, m.TreeID)
		}
		if len(matches) == 0 {
			fmt.Println("no matches")
		}
	}
	return nil
}

func runJoin(args []string) error {
	fs := flag.NewFlagSet("join", flag.ExitOnError)
	idxPath := fs.String("index", "", "index file")
	tau := fs.Float64("tau", 0.5, "distance threshold (pairs with dist < tau)")
	workers := fs.Int("workers", 0, "parallel join workers (0 = GOMAXPROCS)")
	stats := fs.Bool("stats", false, "print an op report (metrics snapshot) to stderr when done")
	fs.Parse(args)
	if *idxPath == "" {
		return fmt.Errorf("join needs -index")
	}
	st, err := pqgram.OpenStore(*idxPath)
	if err != nil {
		return err
	}
	defer st.Close()
	if *stats {
		defer maybeReport(*stats, attachStats(st))
	}
	pairs := st.Forest().SimilarityJoinWorkers(*tau, *workers)
	for _, p := range pairs {
		fmt.Printf("%.4f  %s  %s\n", p.Distance, p.A, p.B)
	}
	if len(pairs) == 0 {
		fmt.Println("no pairs")
	}
	return nil
}

func runDist(args []string) error {
	fs := flag.NewFlagSet("dist", flag.ExitOnError)
	p := fs.Int("p", 3, "pq-gram parameter p")
	q := fs.Int("q", 3, "pq-gram parameter q")
	ted := fs.Bool("ted", false, "also compute the exact tree edit distance (slow)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("dist needs exactly two documents")
	}
	a, err := parseDoc(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := parseDoc(fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Printf("pq-gram distance (p=%d,q=%d): %.4f\n", *p, *q,
		pqgram.Distance(a, b, pqgram.Params{P: *p, Q: *q}))
	if *ted {
		fmt.Printf("tree edit distance: %d\n", pqgram.TreeEditDistance(a, b))
	}
	return nil
}

// runDiff recovers a minimal edit script between two document versions and
// writes the maintenance inputs: the log, and (optionally) the resulting
// document with its node-identity sidecar, ready for `pqindex update`.
func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	logPath := fs.String("log", "", "write the log of inverse operations here")
	outPath := fs.String("out", "", "write the resulting document (+ .ids sidecar) here")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff needs exactly two documents (old new)")
	}
	oldDoc, err := parseDoc(fs.Arg(0))
	if err != nil {
		return err
	}
	newDoc, err := parseDoc(fs.Arg(1))
	if err != nil {
		return err
	}
	script, log, err := pqgram.Diff(oldDoc, newDoc)
	if err != nil {
		return err
	}
	fmt.Printf("minimal edit script: %d operations (tree edit distance)\n", len(script))
	for _, op := range script {
		fmt.Println(" ", op)
	}
	if *logPath != "" {
		lf, err := os.Create(*logPath)
		if err != nil {
			return err
		}
		defer lf.Close()
		if err := pqgram.WriteLog(lf, log); err != nil {
			return err
		}
	}
	if *outPath != "" {
		of, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		if err := pqgram.WriteXML(of, oldDoc); err != nil {
			of.Close()
			return err
		}
		if err := of.Close(); err != nil {
			return err
		}
		idf, err := os.Create(*outPath + ".ids")
		if err != nil {
			return err
		}
		defer idf.Close()
		if err := pqgram.WriteXMLIDs(idf, oldDoc); err != nil {
			return err
		}
	}
	return nil
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	idxPath := fs.String("index", "", "index file")
	fs.Parse(args)
	if *idxPath == "" {
		return fmt.Errorf("info needs -index")
	}
	st, err := pqgram.OpenStore(*idxPath)
	if err != nil {
		return err
	}
	defer st.Close()
	f := st.Forest()
	sz, err := pqgram.ForestSize(f)
	if err != nil {
		return err
	}
	js, _ := st.JournalSize()
	printRecovery(st.Recovery())
	pr := f.Params()
	fmt.Printf("parameters: p=%d q=%d\n", pr.P, pr.Q)
	fmt.Printf("trees: %d, pq-grams: %d, snapshot: %d bytes, journal: %d bytes\n", f.Len(), f.Size(), sz, js)
	ss := st.Stats()
	fmt.Printf("store: %d segments (%d bytes), %d resident docs, %d evicted docs, %d pending tombstones, next seq %d\n",
		ss.Segments, ss.SegmentBytes, ss.ResidentDocs, ss.EvictedDocs, ss.PendingTombstones, ss.NextSeq)
	for _, id := range f.IDs() {
		grams, distinct, _ := f.TreeStats(id)
		fmt.Printf("  %-40s %8d pq-grams (%d distinct)\n", id, grams, distinct)
	}
	return nil
}
