// Benchmarks regenerating every table and figure of the paper's evaluation
// (§9) as testing.B benchmarks, plus microbenchmarks of the core
// operations and the ablations (§8.1's anchor-ID index, the edit mix).
// Run the paper's experiments with
//
//	go test -run '^$' -bench 'Fig|Table2|Ablation' -count 5 .
//
// Fixtures are generated once per size and shared across benchmarks. Off
// the clock, every update experiment checks the updated index against a
// rebuild and the on-the-fly lookup checks its matches against the
// indexed one; either fails on divergence, so a one-iteration sweep
// (-benchtime=1x) is a correctness run at the paper's scale. The shapes
// the figures show are asserted by shape_test.go; EXPERIMENTS.md holds
// the measured tables.
package pqgram_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pqgram"
	"pqgram/internal/core"
	"pqgram/internal/diff"
	"pqgram/internal/edit"
	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/gen"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/store"
)

var benchP = pqgram.DefaultParams

// --- shared fixtures -----------------------------------------------------

var (
	xmarkDocs  = map[int]*pqgram.Tree{}
	dblpDocs   = map[int]*pqgram.Tree{}
	forestsFix = map[int]*forest.Index{}
	forestDocs = map[int][]*pqgram.Tree{}
	fixMu      sync.Mutex
)

func xmarkDoc(n int) *pqgram.Tree {
	fixMu.Lock()
	defer fixMu.Unlock()
	if d, ok := xmarkDocs[n]; ok {
		return d
	}
	d := gen.XMark(int64(n), n)
	xmarkDocs[n] = d
	return d
}

func dblpDoc(n int) *pqgram.Tree {
	fixMu.Lock()
	defer fixMu.Unlock()
	if d, ok := dblpDocs[n]; ok {
		return d
	}
	d := gen.DBLP(int64(n), n)
	dblpDocs[n] = d
	return d
}

// lookupFixture builds a collection of numDocs XMark documents with a
// fixed total node budget, indexed in a forest (Figure 13 left setup).
func lookupFixture(numDocs int) (*forest.Index, []*pqgram.Tree) {
	fixMu.Lock()
	defer fixMu.Unlock()
	if f, ok := forestsFix[numDocs]; ok {
		return f, forestDocs[numDocs]
	}
	docs := gen.XMarkForest(int64(numDocs), numDocs, 300000)
	f := forest.New(benchP)
	for i, d := range docs {
		if err := f.Add(fmt.Sprintf("doc-%d", i), d); err != nil {
			panic(err)
		}
	}
	forestsFix[numDocs] = f
	forestDocs[numDocs] = docs
	return f, docs
}

// updateKey names one random script of a benchmark: ops edits drawn from
// mix on doc.
type updateKey struct {
	doc *pqgram.Tree
	ops int
	mix gen.OpMix
}

var updateScripts = map[updateKey]pqgram.Script{}

// updateScript generates the key's script once and shares it across runs:
// gen.RandomScript walks the whole tree per edit, which would dwarf the
// update it feeds at these sizes.
func updateScript(k updateKey) pqgram.Script {
	fixMu.Lock()
	defer fixMu.Unlock()
	if s, ok := updateScripts[k]; ok {
		return s
	}
	s, _, err := gen.RandomScript(rand.New(rand.NewSource(int64(k.ops))), k.doc.Clone(), k.ops, k.mix)
	if err != nil {
		panic(err)
	}
	updateScripts[k] = s
	return s
}

// benchUpdate times the paper's maintenance step: the index of doc
// updated in place with the log of one script of ops edits drawn from
// mix. Every iteration replays the same script from the same T₀ and I₀.
// Moving the document and its index back (undoing the edits, and updating
// the index with the undo's own log) and the document forward to Tₙ run
// off the clock, and so does the final check that the index equals a
// rebuild of Tₙ. It returns the per-step statistics summed over the b.N
// updates.
func benchUpdate(b *testing.B, doc *pqgram.Tree, ops int, mix gen.OpMix) pqgram.UpdateStats {
	b.Helper()
	script := updateScript(updateKey{doc, ops, mix})
	tn := doc.Clone()
	idx := pqgram.BuildIndex(tn, benchP)
	var log pqgram.Log
	var agg pqgram.UpdateStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i > 0 {
			undo := make(pqgram.Script, len(log))
			for j, op := range log {
				undo[len(log)-1-j] = op
			}
			back, err := undo.Apply(tn)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pqgram.UpdateIndexInPlace(idx, tn, back, benchP); err != nil {
				b.Fatal(err)
			}
		}
		var err error
		if log, err = script.Apply(tn); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		st, err := pqgram.UpdateIndexInPlace(idx, tn, log, benchP)
		if err != nil {
			b.Fatal(err)
		}
		agg.DeltaPlus += st.DeltaPlus
		agg.LambdaPlus += st.LambdaPlus
		agg.DeltaMinus += st.DeltaMinus
		agg.LambdaMinus += st.LambdaMinus
		agg.ApplyIndex += st.ApplyIndex
		agg.Total += st.Total
		agg.PlusGrams += st.PlusGrams
		agg.MinusGrams += st.MinusGrams
	}
	b.StopTimer()
	if !idx.Equal(pqgram.BuildIndex(tn, benchP)) {
		b.Fatalf("%d edits, %d runs: the updated index diverged from a rebuild", ops, b.N)
	}
	return agg
}

// --- microbenchmarks -------------------------------------------------------

func BenchmarkBuildIndex(b *testing.B) {
	for _, n := range []int{10000, 50000, 200000} {
		doc := xmarkDoc(n)
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				idx := pqgram.BuildIndex(doc, benchP)
				if idx.Size() == 0 {
					b.Fatal("empty index")
				}
			}
		})
	}
}

func BenchmarkDistance(b *testing.B) {
	a := xmarkDoc(20000)
	rng := rand.New(rand.NewSource(1))
	c, _, err := gen.Perturb(rng, a, 50, gen.DefaultMix)
	if err != nil {
		b.Fatal(err)
	}
	ia, ic := pqgram.BuildIndex(a, benchP), pqgram.BuildIndex(c, benchP)
	b.Run("precomputed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ia.Distance(ic)
		}
	})
	b.Run("on-the-fly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = pqgram.Distance(a, c, benchP)
		}
	})
}

// --- Figure 13 (left): lookup with and without precomputed index ----------

func BenchmarkFig13LookupIndexed(b *testing.B) {
	for _, numDocs := range []int{32, 256, 2048} {
		f, docs := lookupFixture(numDocs)
		rng := rand.New(rand.NewSource(int64(numDocs)))
		query, _, err := gen.Perturb(rng, docs[numDocs/2], 10, gen.DefaultMix)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("docs=%d", numDocs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = f.Lookup(query, 0.7)
			}
		})
	}
}

func BenchmarkFig13LookupOnTheFly(b *testing.B) {
	for _, numDocs := range []int{32, 256, 2048} {
		f, docs := lookupFixture(numDocs)
		rng := rand.New(rand.NewSource(int64(numDocs)))
		query, _, err := gen.Perturb(rng, docs[numDocs/2], 10, gen.DefaultMix)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("docs=%d", numDocs), func(b *testing.B) {
			matches := 0
			for i := 0; i < b.N; i++ {
				q := pqgram.BuildIndex(query, benchP)
				matches = 0
				for _, d := range docs {
					if q.Distance(pqgram.BuildIndex(d, benchP)) < 0.7 {
						matches++
					}
				}
			}
			b.StopTimer()
			if indexed := len(f.Lookup(query, 0.7)); indexed != matches {
				b.Fatalf("%d matches on the fly, %d indexed", matches, indexed)
			}
		})
	}
}

// --- Figure 13 (right): build from scratch vs incremental update ----------

func BenchmarkFig13BuildScratch(b *testing.B) {
	for _, n := range []int{50000, 100000, 200000, 400000, 800000} {
		doc := xmarkDoc(n)
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = pqgram.BuildIndex(doc, benchP)
			}
		})
	}
}

func BenchmarkFig13IncrementalUpdate(b *testing.B) {
	for _, n := range []int{50000, 100000, 200000, 400000, 800000} {
		doc := xmarkDoc(n)
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			benchUpdate(b, doc, 100, gen.DefaultMix)
		})
	}
}

// --- Figure 14 (left): index size --------------------------------------

func BenchmarkFig14IndexSize(b *testing.B) {
	for _, n := range []int{25000, 50000, 100000, 200000, 400000} {
		doc := xmarkDoc(n)
		xml, err := pqgram.WriteXMLString(doc)
		if err != nil {
			b.Fatal(err)
		}
		for _, pr := range []pqgram.Params{{P: 1, Q: 2}, {P: 3, Q: 3}} {
			b.Run(fmt.Sprintf("nodes=%d/p%dq%d", n, pr.P, pr.Q), func(b *testing.B) {
				f := forest.New(pr)
				if err := f.Add("doc", doc); err != nil {
					b.Fatal(err)
				}
				var sz int64
				for i := 0; i < b.N; i++ {
					sz, err = store.Size(f)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(sz), "index-bytes")
				b.ReportMetric(float64(len(xml)), "xml-bytes")
				b.ReportMetric(float64(sz)/float64(len(xml)), "index/xml")
			})
		}
	}
}

// --- Figure 14 (right): update time by log size -------------------------

func BenchmarkFig14UpdateByLogSize(b *testing.B) {
	doc := dblpDoc(200000)
	for _, ops := range []int{1, 4, 16, 64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("edits=%d", ops), func(b *testing.B) {
			benchUpdate(b, doc, ops, gen.DefaultMix)
		})
	}
}

// --- Table 2: breakdown of the update time ------------------------------

// BenchmarkTable2Breakdown reports each step's mean time per update and
// its share of the update's total.
func BenchmarkTable2Breakdown(b *testing.B) {
	doc := dblpDoc(200000)
	for _, ops := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("edits=%d", ops), func(b *testing.B) {
			agg := benchUpdate(b, doc, ops, gen.DefaultMix)
			for _, step := range []struct {
				name string
				d    time.Duration
			}{
				{"Δ+", agg.DeltaPlus},
				{"λΔ+", agg.LambdaPlus},
				{"Δ-", agg.DeltaMinus},
				{"λΔ-", agg.LambdaMinus},
				{"apply", agg.ApplyIndex},
			} {
				b.ReportMetric(float64(step.d)/float64(b.N)/1e6, step.name+"ms/op")
				b.ReportMetric(float64(step.d)/float64(agg.Total), step.name+"share")
			}
		})
	}
}

// --- Ablation: anchor-ID secondary index (§8.1) --------------------------

func BenchmarkAblationAnchorIndex(b *testing.B) {
	doc := xmarkDoc(200000)
	rng := rand.New(rand.NewSource(99))
	tn := doc.Clone()
	_, log, err := gen.RandomScript(rng, tn, 500, gen.DefaultMix)
	if err != nil {
		b.Fatal(err)
	}
	for _, indexed := range []bool{true, false} {
		name := "with-index"
		if !indexed {
			name = "without-index"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tables := core.NewTablesIndexed(profile.Params(benchP), indexed)
				for _, op := range log {
					tables.AddDelta(tn, op)
				}
				if err := tables.Rewind(log); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: the edit-operation mix ----------------------------------------

// BenchmarkAblationOpMix updates a 200 k-node XMark document with logs of
// 500 edits of one kind, or the even mix, and reports the Δ⁺ tuples each
// update computes.
func BenchmarkAblationOpMix(b *testing.B) {
	doc := xmarkDoc(200000)
	for _, m := range []struct {
		name string
		mix  gen.OpMix
	}{
		{"renames", gen.OpMix{Rename: 1}},
		{"inserts", gen.OpMix{Insert: 1}},
		{"deletes", gen.OpMix{Delete: 1}},
		{"even", gen.DefaultMix},
	} {
		b.Run("mix="+m.name, func(b *testing.B) {
			agg := benchUpdate(b, doc, 500, m.mix)
			b.ReportMetric(float64(agg.PlusGrams)/float64(b.N), "Δ+grams/op")
		})
	}
}

// --- Forest maintenance under load ---------------------------------------

func BenchmarkForestUpdate(b *testing.B) {
	f, docs := lookupFixture(32)
	doc := docs[0].Clone()
	rng := rand.New(rand.NewSource(5))
	b.Run("ops=20", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, log, err := gen.RandomScript(rng, doc, 20, gen.DefaultMix)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.Update("doc-0", doc, log); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- extensions: diff recovery and log preprocessing ---------------------

func BenchmarkDiff(b *testing.B) {
	for _, n := range []int{100, 400} {
		base := gen.XMark(int64(n), n)
		rng := rand.New(rand.NewSource(int64(n)))
		mutant, _, err := gen.Perturb(rng, base, 10, gen.DefaultMix)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				work := base.Clone()
				if _, _, err := diff.Script(work, mutant); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOptimizeLog(b *testing.B) {
	doc := xmarkDoc(50000)
	tn := doc.Clone()
	rng := rand.New(rand.NewSource(1))
	_, log, err := gen.RandomScript(rng, tn, 1000, gen.OpMix{Insert: 1, Delete: 1, Rename: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = edit.OptimizeLog(tn, log)
	}
}

// --- concurrency and parallelism -----------------------------------------

var (
	dblpForestFix  *forest.Index
	dblpForestDocs []forest.Doc
)

// dblpForest builds the 500-tree DBLP-shaped benchmark forest (clusters of
// near-duplicates from repeated seeds, so the join has real work).
func dblpForest() (*forest.Index, []forest.Doc) {
	fixMu.Lock()
	defer fixMu.Unlock()
	if dblpForestFix != nil {
		return dblpForestFix, dblpForestDocs
	}
	docs := make([]forest.Doc, 500)
	for i := range docs {
		docs[i] = forest.Doc{
			ID:   fmt.Sprintf("dblp-%03d", i),
			Tree: gen.DBLP(int64(i%40), 150+i%100),
		}
	}
	f := forest.New(benchP)
	if err := f.AddAll(docs, 0); err != nil {
		panic(err)
	}
	dblpForestFix, dblpForestDocs = f, docs
	return f, docs
}

// BenchmarkForestLookupParallel measures concurrent lookup throughput on
// the sharded index: every P runs Lookup against the same forest.
func BenchmarkForestLookupParallel(b *testing.B) {
	f, docs := dblpForest()
	rng := rand.New(rand.NewSource(77))
	query, _, err := gen.Perturb(rng, docs[123].Tree, 8, gen.DefaultMix)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = f.Lookup(query, 0.6)
		}
	})
}

// BenchmarkLookupTopK runs top-k on the clustered DBLP forest.
func BenchmarkLookupTopK(b *testing.B) {
	f, docs := dblpForest()
	rng := rand.New(rand.NewSource(78))
	query, _, err := gen.Perturb(rng, docs[123].Tree, 8, gen.DefaultMix)
	if err != nil {
		b.Fatal(err)
	}
	q := profile.BuildIndex(query, benchP)
	for _, k := range []int{1, 10, 25} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			f.LookupIndexTopK(q, k) // warm the scratch pool off the clock
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = f.LookupIndexTopK(q, k)
			}
		})
	}
}

// BenchmarkLookup measures the cost of the instrumentation hooks on the
// lookup hot path: the same query against the same forest with no collector
// (the default one-nil-check fast path), with a collector attached
// (counter + latency histogram per op), with a collector whose tracer
// never samples the measured ops (one extra atomic load + nil check), and
// with every lookup fully traced (the worst case: a span tree per op).
// The acceptance bar is that "off" stays within noise of the seed,
// "on" and "tracer=unsampled" within a few percent of "off", and only
// "tracer=all" is allowed to pay for span allocation.
func BenchmarkLookup(b *testing.B) {
	f, docs := lookupFixture(256)
	rng := rand.New(rand.NewSource(256))
	query, _, err := gen.Perturb(rng, docs[128], 10, gen.DefaultMix)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("collector=off", func(b *testing.B) {
		f.SetCollector(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = f.Lookup(query, 0.7)
		}
	})
	b.Run("collector=on", func(b *testing.B) {
		f.SetCollector(obs.NewCollector())
		defer f.SetCollector(nil) // the fixture is shared across benchmarks
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = f.Lookup(query, 0.7)
		}
	})
	b.Run("tracer=unsampled", func(b *testing.B) {
		col := obs.NewCollector()
		col.SetTracer(obs.NewTracer(1<<30, 8))
		f.SetCollector(col)
		defer f.SetCollector(nil)
		f.Lookup(query, 0.7) // absorb the tracer's always-sampled first call
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = f.Lookup(query, 0.7)
		}
	})
	b.Run("tracer=all", func(b *testing.B) {
		col := obs.NewCollector()
		col.SetTracer(obs.NewTracer(1, 64))
		f.SetCollector(col)
		defer f.SetCollector(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = f.Lookup(query, 0.7)
		}
	})
}

// tierSide is one of the two stores of the tier benchmarks' fixture.
type tierSide struct {
	name string
	f    *forest.Index
}

var (
	tierSidesFix   []tierSide
	tierQueriesFix []profile.Index
)

// tierFixture is the clustered corpus of the tier benchmarks (128 clusters
// of 8 near-duplicates, DBLP and XMark bases alternating, sizes spread)
// held by a segmented store that flushed every 128 documents — everything
// evicted, 8 segments — and by one that never flushed, plus 16 perturbed
// documents to ask. Built once and shared; nothing mutates it.
func tierFixture() ([]tierSide, []profile.Index) {
	fixMu.Lock()
	defer fixMu.Unlock()
	if tierSidesFix != nil {
		return tierSidesFix, tierQueriesFix
	}
	evicted, err := store.CreateSegmentedFS(fsio.NewMemFS(), "evicted.pqg", benchP)
	if err != nil {
		panic(err)
	}
	evicted.SetFlushThreshold(128)
	resident, err := store.CreateSegmentedFS(fsio.NewMemFS(), "resident.pqg", benchP)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(128))
	var docs []*pqgram.Tree
	for c := 0; c < 128; c++ {
		base := gen.DBLP(int64(c), 64+3*c)
		if c%2 == 1 {
			base = gen.XMark(int64(c), 64+3*c)
		}
		for m := 0; m < 8; m++ {
			mate, _, err := gen.Perturb(rng, base, 1+m, gen.DefaultMix)
			if err != nil {
				panic(err)
			}
			docs = append(docs, mate)
		}
	}
	// Cluster mates are spread over the segments, as arrival order does.
	rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	for i, d := range docs {
		for _, s := range []*store.Segmented{evicted, resident} {
			if err := s.Add(fmt.Sprintf("doc-%04d", i), d); err != nil {
				panic(err)
			}
		}
	}
	if st := evicted.Stats(); st.Segments != 8 || st.ResidentDocs != 0 {
		panic(fmt.Sprintf("fixture not fully evicted: %+v", st))
	}
	queries := make([]profile.Index, 16)
	for i := range queries {
		q, _, err := gen.Perturb(rng, docs[i*len(docs)/len(queries)], 3, gen.DefaultMix)
		if err != nil {
			panic(err)
		}
		queries[i] = profile.BuildIndex(q, benchP)
	}
	tierSidesFix = []tierSide{{"evicted", evicted.Forest()}, {"resident", resident.Forest()}}
	tierQueriesFix = queries
	return tierSidesFix, tierQueriesFix
}

// BenchmarkTierLookup is the lookup grid: the same 16 perturbed documents
// asked of tierFixture's evicted and resident store at four thresholds,
// from selective to permissive — the RAM-versus-tier gap of a threshold
// lookup at each.
func BenchmarkTierLookup(b *testing.B) {
	sides, queries := tierFixture()
	for _, side := range sides {
		for _, tau := range []float64{0.1, 0.3, 0.5, 0.7} {
			b.Run(fmt.Sprintf("%s/tau=%.1f", side.name, tau), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_ = side.f.LookupIndex(queries[i%len(queries)], tau)
				}
			})
		}
	}
}

// BenchmarkTierJoin is the same gap for the similarity join over all 1 024
// documents of tierFixture: on the evicted side every document's bag comes
// from its segment and every lookup reads the runs.
func BenchmarkTierJoin(b *testing.B) {
	sides, _ := tierFixture()
	for _, side := range sides {
		for _, tau := range []float64{0.3, 0.7} {
			b.Run(fmt.Sprintf("%s/tau=%.1f", side.name, tau), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_ = side.f.SimilarityJoinWorkers(tau, 1)
				}
			})
		}
	}
}

// BenchmarkSimilarityJoin times the join — one lookup per document — on
// the 500-tree DBLP forest: serially at a selective, a middle and an
// all-pairs threshold (τ > 1 takes the scan-all plan), and at four
// workers, whose speedup needs GOMAXPROCS > 1. The result set is identical
// at every width.
func BenchmarkSimilarityJoin(b *testing.B) {
	f, _ := dblpForest()
	for _, c := range []struct {
		workers int
		tau     float64
	}{{1, 0.1}, {1, 0.5}, {1, 1.5}, {4, 0.5}} {
		b.Run(fmt.Sprintf("workers=%d/tau=%.1f", c.workers, c.tau), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = f.SimilarityJoinWorkers(c.tau, c.workers)
			}
		})
	}
}

// BenchmarkForestAddAll measures the parallel bulk build (profiling fans
// out across the pool, the shard merge runs one worker per stripe).
func BenchmarkForestAddAll(b *testing.B) {
	_, docs := dblpForest()
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := forest.New(benchP)
				if err := f.AddAll(docs, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
