package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/gen"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// TestSegmentedLifecycleOnDisk exercises the real-filesystem constructors
// end to end: create through OpenOrCreate, bulk-add, reopen through it,
// and query a store whose documents all live in segment files.
func TestSegmentedLifecycleOnDisk(t *testing.T) {
	base := filepath.Join(t.TempDir(), "idx.pqg")
	s, err := OpenOrCreate(base, p33)
	if err != nil {
		t.Fatal(err)
	}
	if s.Path() != base {
		t.Fatalf("Path = %q", s.Path())
	}
	docs := make([]forest.Doc, 6)
	for i := range docs {
		docs[i] = forest.Doc{ID: fmt.Sprintf("doc-%d", i), Tree: gen.XMark(int64(i), 25)}
	}
	if err := s.AddAll(docs, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.AddAll([]forest.Doc{{ID: "doc-0", Tree: docs[0].Tree}}, 1); err == nil {
		t.Fatal("AddAll accepted a duplicate id")
	}
	if err := s.AddAll([]forest.Doc{{ID: "x", Tree: docs[0].Tree}, {ID: "x", Tree: docs[1].Tree}}, 1); err == nil {
		t.Fatal("AddAll accepted an in-batch duplicate")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil { // idempotent no-op: nothing resident
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Segments != 1 || st.ResidentDocs != 0 || st.EvictedDocs != 6 {
		t.Fatalf("after flush: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// p and q come from the manifest now, not from the argument.
	rs, err := OpenOrCreate(base, profile.Params{P: 1, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Forest().Params() != p33 {
		t.Fatalf("reopened with params %+v", rs.Forest().Params())
	}
	defer rs.Close()
	if rs.Forest().Len() != 6 {
		t.Fatalf("reopened with %d docs", rs.Forest().Len())
	}
	if ms := rs.Forest().Lookup(docs[3].Tree, 0.5); len(ms) == 0 || ms[0].TreeID != "doc-3" {
		t.Fatalf("segment-served lookup: %v", ms)
	}
	if err := rs.Forest().SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentedPutAndErrors covers Put's replace semantics and the
// mutation error paths.
func TestSegmentedPutAndErrors(t *testing.T) {
	fs := fsio.NewMemFS()
	s, err := CreateSegmentedFS(fs, "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	grams, err := s.Put("a", tree.MustParse("r(x y)"))
	if err != nil || grams == 0 {
		t.Fatalf("fresh Put: %d grams, %v", grams, err)
	}
	if err := s.Add("a", tree.MustParse("r(z)")); err == nil {
		t.Fatal("Add accepted an existing id")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Put of an evicted document: journaled remove (tombstone) + add.
	if _, err := s.Put("a", tree.MustParse("r(x y z)")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ResidentDocs != 1 || st.EvictedDocs != 0 || st.PendingTombstones != 1 {
		t.Fatalf("after evicted Put: %+v", st)
	}
	if err := s.Remove("ghost"); !errors.Is(err, forest.ErrNotIndexed) {
		t.Fatalf("Remove of an unknown id = %v, want ErrNotIndexed", err)
	}
	if _, err := s.Update("ghost", tree.MustParse("g"), nil); !errors.Is(err, forest.ErrNotIndexed) {
		t.Fatalf("Update of an unknown id = %v, want ErrNotIndexed", err)
	}
	// Flush writes the new copy; the tombstone is unnecessary (same id is
	// re-stored) and must not shadow it.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if ms := s.Forest().Lookup(tree.MustParse("r(x y z)"), 0.2); len(ms) != 1 || ms[0].TreeID != "a" {
		t.Fatalf("replaced doc lost: %v", ms)
	}
}

// TestPutReplaceIsOneAppend: a synced Put of an indexed id journals its
// remove and add records as one append, so the replace costs one journal
// write and one fsync, and a power cut at any byte of that write recovers
// the document as it was, as absent or as replaced — never anything else.
func TestPutReplaceIsOneAppend(t *testing.T) {
	mem := fsio.NewMemFS()
	s, err := CreateSegmentedFS(mem, "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSync(true)
	oldDoc, newDoc := gen.XMark(1, 30), gen.XMark(2, 30)
	if err := s.Add("doc", oldDoc); err != nil {
		t.Fatal(err)
	}
	start := mem.TraceLen()
	if _, err := s.Put("doc", newDoc); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	trace := mem.Trace()
	write, writes, syncs := -1, 0, 0
	for i := start; i < len(trace); i++ {
		switch trace[i].Kind {
		case fsio.OpWrite:
			write, writes = i, writes+1
		case fsio.OpSync:
			syncs++
		}
	}
	if writes != 1 || syncs != 1 {
		t.Fatalf("a synced replace issued %d writes and %d syncs, want 1 and 1", writes, syncs)
	}
	oldBag, newBag := profile.BuildIndex(oldDoc, p33), profile.BuildIndex(newDoc, p33)
	seen := map[string]bool{}
	for cut := 0; cut <= len(trace[write].Data); cut++ {
		rs, err := OpenSegmentedFS(mem.CrashClone(write, cut), "idx.pqg")
		if err != nil {
			t.Fatalf("cut at byte %d: recovery failed: %v", cut, err)
		}
		switch bag := rs.Forest().TreeIndex("doc"); {
		case bag == nil:
			seen["absent"] = true
		case bag.Equal(oldBag):
			seen["old"] = true
		case bag.Equal(newBag):
			seen["new"] = true
		default:
			t.Fatalf("cut at byte %d: recovered a bag that is neither the old nor the new document", cut)
		}
		if err := rs.Forest().SelfCheck(); err != nil {
			t.Fatalf("cut at byte %d: %v", cut, err)
		}
		if err := rs.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("the cuts recovered only %v; want old, absent and new", seen)
	}
}

// TestSegmentedEmptyCompact: compacting a store whose every document was
// removed publishes a segment-less manifest, and the store reopens empty.
func TestSegmentedEmptyCompact(t *testing.T) {
	fs := fsio.NewMemFS()
	s, err := CreateSegmentedFS(fs, "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add("a", tree.MustParse("r(x)")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Segments != 0 || st.EvictedDocs != 0 || st.ResidentDocs != 0 {
		t.Fatalf("empty compact left %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err := OpenSegmentedFS(fs, "idx.pqg")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Forest().Len() != 0 {
		t.Fatalf("reopened with %d docs", rs.Forest().Len())
	}
	rs.Close()
	if fs.OpenHandles() != 0 {
		t.Fatalf("%d handles leaked", fs.OpenHandles())
	}
}

// TestSegmentedMetrics: the collector sees the segment lifecycle — flush
// and compaction counters, shape gauges, and the replayed-journal metrics
// on reattach after a recovery.
func TestSegmentedMetrics(t *testing.T) {
	fs := fsio.NewMemFS()
	s, err := CreateSegmentedFS(fs, "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSync(true) // cover the sync branches of append and resetJournal
	col := obs.NewCollector()
	col.SetTracer(obs.NewTracer(1, 16))
	s.SetCollector(col)
	for i := 0; i < 5; i++ {
		if err := s.Add(fmt.Sprintf("doc-%d", i), gen.XMark(int64(i), 20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("late", gen.XMark(99, 20)); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	for name, want := range map[string]int64{
		"store_segment_flushes":      1,
		"store_segment_flushed_docs": 5,
		"store_segment_compactions":  1,
		"store_journal_appends":      6,
	} {
		if got := snap.Counters[name]; got != want {
			t.Fatalf("counter %s = %d, want %d", name, got, want)
		}
	}
	if snap.Gauges["store_segment_count"] != 1 || snap.Gauges["store_evicted_docs"] != 6 {
		t.Fatalf("shape gauges: count=%d evicted=%d",
			snap.Gauges["store_segment_count"], snap.Gauges["store_evicted_docs"])
	}
	if snap.Gauges["store_segment_bytes"] <= 0 {
		t.Fatalf("store_segment_bytes = %d", snap.Gauges["store_segment_bytes"])
	}
	if snap.Gauges["store_journal_bytes"] != journalHeaderLen {
		t.Fatalf("store_journal_bytes = %d after compact", snap.Gauges["store_journal_bytes"])
	}

	// Leave a journaled mutation unflushed, reopen, and reattach: the
	// replay must be published, including its synthesized trace span.
	if err := s.Add("tail", gen.XMark(100, 20)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err := OpenSegmentedFS(fs, "idx.pqg")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	col2 := obs.NewCollector()
	col2.SetTracer(obs.NewTracer(1, 16))
	rs.SetCollector(col2)
	snap2 := col2.Snapshot()
	if snap2.Counters["store_journal_replays"] != 1 || snap2.Counters["store_journal_replay_records"] != 1 {
		t.Fatalf("replay counters: %d replays, %d records",
			snap2.Counters["store_journal_replays"], snap2.Counters["store_journal_replay_records"])
	}
	found := false
	for _, tr := range col2.Tracer().RecentTraces(16) {
		if tr.Root.Name == "store.replay" {
			found = true
		}
	}
	if !found {
		t.Fatal("no synthesized store.replay trace after reattach")
	}
	// Detach: mutations keep working and the detached collector's
	// counters, the store's and the forest's, stop moving.
	rs.SetCollector(nil)
	before := col2.Snapshot()
	if err := rs.Add("post-detach", gen.XMark(101, 15)); err != nil {
		t.Fatal(err)
	}
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	for name, d := range col2.Snapshot().CounterDeltas(before) {
		if d != 0 {
			t.Errorf("counter %s moved by %d after detach", name, d)
		}
	}
}

// TestSegmentedTierSpans: with tracing on, a lookup over segment-served
// documents produces a forest "tier" span carrying the tier's bloom and
// probe work, mirrored on the forest_bloom_* / forest_tier_* counters, and
// says how many runs the pruned path abandoned unread and how many needed
// the finish pass.
func TestSegmentedTierSpans(t *testing.T) {
	fs := fsio.NewMemFS()
	s, err := CreateSegmentedFS(fs, "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Three segments: two of near-duplicates of one document each, one of
	// an unrelated label vocabulary that a lookup for the first must
	// abandon on the bloom mass bound.
	for seg, base := range []*tree.Tree{gen.XMark(1, 60), gen.XMark(2, 60), tree.MustParse("k(l(m n) o(p) q)")} {
		for i := 0; i < 6; i++ {
			if err := s.Add(fmt.Sprintf("doc-%d-%d", seg, i), base); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	col := obs.NewCollector()
	tr := obs.NewTracer(1, 4)
	col.SetTracer(tr)
	s.SetCollector(col)
	if ms := s.Forest().Lookup(gen.XMark(1, 60), 0.3); len(ms) != 6 {
		t.Fatalf("lookup found %v, want the six copies", ms)
	}
	snap := col.Snapshot()
	traces := tr.RecentTraces(1)
	if len(traces) != 1 {
		t.Fatalf("%d traces published, want 1", len(traces))
	}
	var tier *obs.SpanSnapshot
	for i, c := range traces[0].Root.Children {
		if c.Name == "tier" {
			tier = &traces[0].Root.Children[i]
		}
	}
	if tier == nil {
		t.Fatalf("no tier span under %+v", traces[0].Root)
	}
	for attr, counter := range map[string]string{
		"segments_probed":  "forest_tier_segments_probed",
		"bloom_checks":     "forest_bloom_checks",
		"bloom_skips":      "forest_bloom_skips",
		"postings_scanned": "forest_tier_postings_scanned",
	} {
		if tier.Attrs[attr] == 0 || tier.Attrs[attr] != snap.Counters[counter] {
			t.Errorf("tier span %s = %d, counter %s = %d; want equal and nonzero", attr, tier.Attrs[attr], counter, snap.Counters[counter])
		}
	}
	if got := tier.Attrs["runs_pruned"]; got < 1 || got+tier.Attrs["segments_probed"] != 3 {
		t.Errorf("runs_pruned = %d with segments_probed = %d over 3 segments", got, tier.Attrs["segments_probed"])
	}
	if got := tier.Attrs["runs_finished"]; got < 1 || got > tier.Attrs["segments_probed"] {
		t.Errorf("runs_finished = %d with segments_probed = %d", got, tier.Attrs["segments_probed"])
	}
	if tier.Attrs["candidates"] != 6 {
		t.Errorf("tier candidates = %d, want 6", tier.Attrs["candidates"])
	}
}

// TestUpdateForeignLogRejected: the edit log of another document yields an
// I⁻ the stored bag does not contain. Update must refuse it before the
// journal append — a journaled record that cannot be applied would make
// every later open fail on replay — so the store reopens with the
// document's bag unchanged, whether it was resident or flushed.
func TestUpdateForeignLogRejected(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, flushed := range []bool{false, true} {
			fs := fsio.NewMemFS()
			s, err := CreateSegmentedFS(fs, "idx.pqg", p33)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Add("doc", gen.XMark(seed, 80)); err != nil {
				t.Fatal(err)
			}
			if flushed {
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			want := s.Forest().TreeIndex("doc")
			tn, log, err := gen.Perturb(rand.New(rand.NewSource(seed)), gen.XMark(seed+100, 80), 4, gen.DefaultMix)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Update("doc", tn, log); err == nil {
				t.Fatalf("seed %d: a foreign log was applied", seed)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := OpenSegmentedFS(fs, "idx.pqg")
			if err != nil {
				t.Fatalf("seed %d flushed %v: reopen after a rejected update: %v", seed, flushed, err)
			}
			if got := r.Forest().TreeIndex("doc"); !got.Equal(want) {
				t.Fatalf("seed %d flushed %v: bag changed by a rejected update", seed, flushed)
			}
			if err := r.Forest().SelfCheck(); err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSegmentedRemovedNumberReused: removing a flushed document frees its
// doc number, and the next registration inherits it. The segment copy must
// be dead by then, or a lookup credits the newcomer with the removed
// document's postings.
func TestSegmentedRemovedNumberReused(t *testing.T) {
	s, err := CreateSegmentedFS(fsio.NewMemFS(), "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := forest.New(p33)
	base := gen.XMark(5, 60)
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("dup-%d", i)
		if err := s.Add(id, base); err != nil {
			t.Fatal(err)
		}
		if err := ref.Add(id, base); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("dup-2"); err != nil {
		t.Fatal(err)
	}
	if err := ref.Remove("dup-2"); err != nil {
		t.Fatal(err)
	}
	stranger := tree.MustParse("k(l(m n) o(p) q)")
	if _, err := s.Put("stranger", stranger); err != nil {
		t.Fatal(err)
	}
	ref.Put("stranger", stranger)
	for _, tau := range []float64{0.2, 1, 1.5} {
		if got, want := s.Forest().Lookup(base, tau), ref.Lookup(base, tau); !reflect.DeepEqual(got, want) {
			t.Fatalf("tau %v:\n got %v\nwant %v", tau, got, want)
		}
	}
	if got, want := s.Forest().LookupTopK(base, 4), ref.LookupTopK(base, 4); !reflect.DeepEqual(got, want) {
		t.Fatalf("top-4:\n got %v\nwant %v", got, want)
	}
	if err := s.Forest().SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentedOrphanSegmentInvisible: a crash can leave a segment file
// the manifest never adopted; the next flush must rename over it and the
// orphan must never influence answers in between.
func TestSegmentedOrphanSegmentInvisible(t *testing.T) {
	fs := fsio.NewMemFS()
	s, err := CreateSegmentedFS(fs, "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add("a", tree.MustParse("r(x y)")); err != nil {
		t.Fatal(err)
	}
	// Plant an orphan at the sequence number the next flush will use,
	// holding a document the store was never given.
	orphan := []segDoc{{id: "phantom", bag: profile.Freeze(profile.BuildIndex(tree.MustParse("q(a b c)"), p33))}}
	if _, _, err := writeSegment(fs, segmentPath("idx.pqg", s.Stats().NextSeq), p33, s.Stats().NextSeq, orphan, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err := OpenSegmentedFS(fs, "idx.pqg")
	if err != nil {
		t.Fatalf("open with orphan present: %v", err)
	}
	if rs.Forest().Has("phantom") {
		t.Fatal("orphan segment resurrected a document")
	}
	if err := rs.Flush(); err != nil { // renames over the orphan
		t.Fatal(err)
	}
	if rs.Forest().Has("phantom") || rs.Forest().Len() != 1 {
		t.Fatalf("after reclaiming flush: %d docs", rs.Forest().Len())
	}
	if ms := rs.Forest().Lookup(tree.MustParse("r(x y)"), 0.5); len(ms) != 1 || ms[0].TreeID != "a" {
		t.Fatalf("lookup after orphan reclaim: %v", ms)
	}
	rs.Close()
}

// TestLegacySnapshotRejected: a path holding a "PQGI" snapshot and no
// manifest is an index of the removed snapshot+journal engine. Opening it
// must say so (not "manifest not found"), and OpenOrCreate must not start
// an empty store next to it.
func TestLegacySnapshotRejected(t *testing.T) {
	base := filepath.Join(t.TempDir(), "idx.pqg")
	if err := SaveFile(base, sweepForest("a", "b")); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func() (*Segmented, error){
		"OpenSegmented": func() (*Segmented, error) { return OpenSegmented(base) },
		"OpenOrCreate":  func() (*Segmented, error) { return OpenOrCreate(base, p33) },
	} {
		s, err := open()
		if err == nil {
			s.Close()
			t.Fatalf("%s accepted a legacy snapshot", name)
		}
		if !strings.Contains(err.Error(), `legacy "PQGI" snapshot`) || !strings.Contains(err.Error(), "pqindex build") {
			t.Fatalf("%s: error does not name the legacy format and the way out: %v", name, err)
		}
	}
	if _, err := os.Stat(manifestPath(base)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a manifest appeared next to the legacy snapshot: %v", err)
	}
}
