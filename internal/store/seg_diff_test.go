package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/gen"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// The differential proof of the segmented engine: for 200 random
// workloads, a segmented store (auto-flushing into multiple segments,
// promoting, tombstoning, compacting, reopening) must answer every query
// kind byte-identically to a plain in-RAM forest fed the same mutations.
// Equality is reflect.DeepEqual over the full result structs — ids,
// distances and order — so any divergence in the tier merge, the bloom
// pre-filter, liveness filtering or recovery shows up as a hard failure.

// diffQueries compares every lookup surface of the two indexes.
func diffQueries(t *testing.T, tag string, seg, ref *forest.Index, queries []*tree.Tree) {
	t.Helper()
	if seg.Len() != ref.Len() {
		t.Fatalf("%s: %d docs vs %d", tag, seg.Len(), ref.Len())
	}
	for qi, q := range queries {
		for _, tau := range []float64{0.1, 0.3, 0.6, 0.9, 1} {
			if got, want := seg.Lookup(q, tau), ref.Lookup(q, tau); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Lookup(q%d, %.1f) diverges:\n got %v\nwant %v", tag, qi, tau, got, want)
			}
		}
		for _, k := range []int{4, 5} {
			if got, want := seg.LookupTopK(q, k), ref.LookupTopK(q, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: LookupTopK(q%d, %d) diverges:\n got %v\nwant %v", tag, qi, k, got, want)
			}
		}
	}
	if got, want := seg.SimilarityJoinWorkers(0.8, 2), ref.SimilarityJoinWorkers(0.8, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: SimilarityJoin diverges:\n got %v\nwant %v", tag, got, want)
	}
}

// runSegDifferential drives one seeded workload against both engines.
func runSegDifferential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fs := fsio.NewMemFS()
	s, err := CreateSegmentedFS(fs, "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFlushThreshold(3) // small, so the workload crosses many segments
	ref := forest.New(p33)

	docs := make(map[string]*tree.Tree)
	ids := func() []string { return ref.IDs() } // sorted
	nextID := 0
	queries := []*tree.Tree{gen.XMark(991, 35), gen.XMark(992, 20)}

	nOps := 16 + rng.Intn(10)
	for op := 0; op < nOps; op++ {
		switch r := rng.Float64(); {
		case op < 4 || (r < 0.35 && len(docs) < 14):
			id := fmt.Sprintf("doc-%02d", nextID)
			tr := gen.XMark(seed*100+int64(nextID), 18+rng.Intn(25))
			nextID++
			if err := s.Add(id, tr.Clone()); err != nil {
				t.Fatalf("seg add %s: %v", id, err)
			}
			if err := ref.Add(id, tr.Clone()); err != nil {
				t.Fatalf("ref add %s: %v", id, err)
			}
			docs[id] = tr
		case r < 0.50 && len(docs) > 3:
			id := ids()[rng.Intn(len(docs))]
			if err := s.Remove(id); err != nil {
				t.Fatalf("seg remove %s: %v", id, err)
			}
			if err := ref.Remove(id); err != nil {
				t.Fatalf("ref remove %s: %v", id, err)
			}
			delete(docs, id)
		case r < 0.60:
			if err := s.Compact(); err != nil {
				t.Fatalf("compact: %v", err)
			}
		case r < 0.70:
			if err := s.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
		default:
			id := ids()[rng.Intn(len(docs))]
			_, log, err := gen.RandomScript(rng, docs[id], 1+rng.Intn(4), gen.DefaultMix)
			if err != nil {
				t.Fatalf("script: %v", err)
			}
			if _, err := s.Update(id, docs[id], log); err != nil {
				t.Fatalf("seg update %s: %v", id, err)
			}
			if _, err := ref.Update(id, docs[id], log); err != nil {
				t.Fatalf("ref update %s: %v", id, err)
			}
		}
	}
	// Make sure the final state actually exercises the tier: at least one
	// flush happened (threshold 3 with >=4 adds guarantees it), and some
	// documents are evicted right now.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Segments == 0 || st.EvictedDocs == 0 {
		t.Fatalf("workload never evicted: %+v", st)
	}
	diffQueries(t, fmt.Sprintf("seed %d live", seed), s.Forest(), ref, queries)
	if err := s.Forest().SelfCheck(); err != nil {
		t.Fatalf("seed %d: segmented forest self-check: %v", seed, err)
	}

	// Reopen from disk: recovery must reproduce the identical answers.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err := OpenSegmentedFS(fs, "idx.pqg")
	if err != nil {
		t.Fatalf("seed %d: reopen: %v", seed, err)
	}
	diffQueries(t, fmt.Sprintf("seed %d reopened", seed), rs.Forest(), ref, queries)

	// Compact down to one segment and compare once more.
	if err := rs.Compact(); err != nil {
		t.Fatalf("seed %d: final compact: %v", seed, err)
	}
	if st := rs.Stats(); st.Segments > 1 || st.ResidentDocs != 0 {
		t.Fatalf("seed %d: compact left %+v", seed, st)
	}
	diffQueries(t, fmt.Sprintf("seed %d compacted", seed), rs.Forest(), ref, queries)
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if fs.OpenHandles() != 0 {
		t.Fatalf("seed %d: %d file handles leaked", seed, fs.OpenHandles())
	}
}

// TestSegmentedDifferential200 sweeps 200 seeds (25 under -short).
func TestSegmentedDifferential200(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 25
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			t.Parallel()
			runSegDifferential(t, int64(seed))
		})
	}
}

// TestSegmentedClusteredDifferential is the differential at the scale the
// per-run planning is built for: a corpus of near-duplicate clusters
// flushed into several segments, then random replacements, removals and
// updates, so that segments hold live, shadowed and deleted copies while
// other documents sit in RAM. A segmented store must then answer every
// threshold and top-k exactly like a store that never flushed.
func TestSegmentedClusteredDifferential(t *testing.T) {
	// The flush threshold scales with the corpus so that both sizes flush
	// at least twice: 24 clusters of 8 would cross 128 documents only once.
	clusters, queries, flushAt := 64, 64, 128
	if testing.Short() {
		clusters, queries, flushAt = 24, 12, 64
	}
	const mates = 8
	rng := rand.New(rand.NewSource(41))
	seg, err := CreateSegmentedFS(fsio.NewMemFS(), "seg.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	seg.SetFlushThreshold(flushAt)
	ram, err := CreateSegmentedFS(fsio.NewMemFS(), "ram.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	defer ram.Close()

	docs := make(map[string]*tree.Tree)
	var ids []string
	put := func(id string, tr *tree.Tree) {
		t.Helper()
		for _, s := range []*Segmented{seg, ram} {
			if _, err := s.Put(id, tr.Clone()); err != nil {
				t.Fatalf("put %s: %v", id, err)
			}
		}
		if docs[id] == nil {
			ids = append(ids, id)
		}
		docs[id] = tr
	}
	for c := 0; c < clusters; c++ {
		base := gen.DBLP(int64(c), 40+5*c)
		if c%2 == 1 {
			base = gen.XMark(int64(c), 40+5*c)
		}
		for m := 0; m < mates; m++ {
			mate, _, err := gen.Perturb(rng, base, 1+m, gen.DefaultMix)
			if err != nil {
				t.Fatal(err)
			}
			put(fmt.Sprintf("c%02d-m%d", c, m), mate)
		}
	}
	for op := 0; op < len(ids)/2; op++ {
		id := ids[rng.Intn(len(ids))]
		switch r := rng.Intn(10); {
		case docs[id] == nil:
		case r < 3: // replace with another near-duplicate
			mate, _, err := gen.Perturb(rng, docs[id], 2, gen.DefaultMix)
			if err != nil {
				t.Fatal(err)
			}
			put(id, mate)
		case r < 5:
			for _, s := range []*Segmented{seg, ram} {
				if err := s.Remove(id); err != nil {
					t.Fatalf("remove %s: %v", id, err)
				}
			}
			docs[id] = nil
		default:
			_, log, err := gen.RandomScript(rng, docs[id], 1+rng.Intn(4), gen.DefaultMix)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*Segmented{seg, ram} {
				if _, err := s.Update(id, docs[id], log); err != nil {
					t.Fatalf("update %s: %v", id, err)
				}
			}
		}
	}
	if st := seg.Stats(); st.Segments < 2 || st.EvictedDocs == 0 || st.ResidentDocs == 0 || st.PendingTombstones == 0 {
		t.Fatalf("the script left no mixed RAM/tier state: %+v", st)
	}
	if st := ram.Stats(); st.Segments != 0 {
		t.Fatalf("the reference store flushed: %+v", st)
	}
	if err := seg.Forest().SelfCheck(); err != nil {
		t.Fatal(err)
	}

	matches := 0
	for qi := 0; qi < queries; qi++ {
		id := ids[rng.Intn(len(ids))]
		for docs[id] == nil {
			id = ids[rng.Intn(len(ids))]
		}
		qt, _, err := gen.Perturb(rng, docs[id], 1+qi%5, gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		q := profile.BuildIndex(qt, p33)
		for _, tau := range []float64{0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0} {
			got, want := seg.Forest().LookupIndex(q, tau), ram.Forest().LookupIndex(q, tau)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("q%d tau %v diverges:\n got %v\nwant %v", qi, tau, got, want)
			}
			matches += len(got)
		}
		for _, k := range []int{1, 10} {
			if got, want := seg.Forest().LookupIndexTopK(q, k), ram.Forest().LookupIndexTopK(q, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("q%d top-%d diverges:\n got %v\nwant %v", qi, k, got, want)
			}
		}
	}
	if matches == 0 {
		t.Fatal("no query matched anything")
	}
}

// TestSegmentedBloomSkips proves the bloom pre-filter actually skips
// segment probes for disjoint queries: a query sharing no tuples with a
// flushed segment must record bloom skips and touch no postings.
func TestSegmentedBloomSkips(t *testing.T) {
	fs := fsio.NewMemFS()
	s, err := CreateSegmentedFS(fs, "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		if err := s.Add(fmt.Sprintf("doc-%d", i), gen.XMark(int64(i), 30)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// A single-node document with a label no XMark tree uses: its pq-gram
	// tuples cannot appear in the segment, so every check must skip.
	alien := tree.MustParse("zzz_alien_label")
	col := obs.NewCollector()
	s.SetCollector(col)
	// A threshold lookup plans the runs; top-k accumulates them whole.
	// Both read the filters first. The top-k answer is every document at
	// distance 1, scored from cached sizes.
	for name, lookup := range map[string]func(){
		"lookup": func() {
			if out := s.Forest().Lookup(alien, 0.9); len(out) != 0 {
				t.Fatalf("alien query matched %v", out)
			}
		},
		"top-k": func() { s.Forest().LookupTopK(alien, 3) },
	} {
		before := col.Snapshot()
		lookup()
		d := col.Snapshot().CounterDeltas(before)
		if d["forest_bloom_checks"] == 0 || d["forest_bloom_skips"] != d["forest_bloom_checks"] {
			t.Fatalf("%s: expected all %d bloom checks to skip, got %d skips", name, d["forest_bloom_checks"], d["forest_bloom_skips"])
		}
		if d["forest_tier_segments_probed"] != 0 || d["forest_tier_postings_scanned"] != 0 {
			t.Fatalf("%s: alien query probed segments anyway: %v", name, d)
		}
	}
}
