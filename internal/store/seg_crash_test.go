package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/gen"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// The crash-consistency proof harness. A scripted workload (adds, updates
// that promote evicted documents, removes that tombstone them, auto- and
// forced flushes, compactions) runs against the tracing in-memory
// filesystem; then power is cut at every operation boundary of the write
// trace and at sampled interior byte offsets of every write — which
// places cuts inside journal appends (torn records), segment writes, the
// manifest's temp-fsync-rename replace, journal resets, and the
// obsolete-file removals. After each cut the store is reopened from the
// wreckage and checked:
//
//   - recovery never fails once the store exists on disk, and never
//     resurrects a stale segment: the recovered logical state is the
//     committed state after exactly the last acked operation or the one
//     in flight — never a hybrid, never a reordering, and (with SetSync
//     on) never less than what was acknowledged before the cut; flushes
//     and compactions are invisible to it;
//   - the recovered index is byte-identical (via the deterministic export
//     format) to a forest rebuilt from scratch from the surviving
//     documents, and answers Lookup, SimilarityJoin and metric top-k
//     identically to it — never wrong answers, whether a document is
//     resident, evicted, or mid-eviction at the cut;
//   - no file handles leak, whether recovery succeeds or fails.
//
// Three scripts run through it: one that flushes every few documents, so
// most cuts land in the segment and manifest protocols; one that flushes
// every other document and never compacts, so flushes trigger the
// size-tiered merges — cascading ones among them — and cuts land inside
// merges too; and one that never auto-flushes, so the journal grows long
// and most cuts land in record appends and in the replay of a
// many-record journal.

// crashMark captures the committed state after each workload operation.
type crashMark struct {
	traceEnd int                      // fs trace length when the op returned
	bags     map[string]profile.Index // committed per-tree bags
	docs     map[string]*tree.Tree    // live document versions (clones)
}

func snapshotBags(f *forest.Index) map[string]profile.Index {
	out := make(map[string]profile.Index)
	for _, id := range f.IDs() {
		out[id] = f.TreeIndex(id).Clone()
	}
	return out
}

func cloneDocs(docs map[string]*tree.Tree) map[string]*tree.Tree {
	out := make(map[string]*tree.Tree, len(docs))
	for id, tr := range docs {
		out[id] = tr.Clone()
	}
	return out
}

func bagsEqual(a, b map[string]profile.Index) bool {
	if len(a) != len(b) {
		return false
	}
	for id, bag := range a {
		ob, ok := b[id]
		if !ok || !bag.Equal(ob) {
			return false
		}
	}
	return true
}

// crashPoint is one simulated power cut: trace ops [0, op) applied, plus
// partial bytes of op `op` when it is a write.
type crashPoint struct {
	op      int
	partial int
}

// crashPoints enumerates every trace-operation boundary plus >= 8 sampled
// interior byte offsets of every write (journal appends, segment and
// manifest writes and header rewrites alike — each journal record is a
// single write, so this satisfies "per record" with room to spare).
func crashPoints(trace []fsio.TraceOp) []crashPoint {
	pts := make([]crashPoint, 0, len(trace)*9)
	for i := 0; i <= len(trace); i++ {
		pts = append(pts, crashPoint{op: i})
	}
	for i, op := range trace {
		if op.Kind != fsio.OpWrite || len(op.Data) < 2 {
			continue
		}
		seen := map[int]bool{}
		for k := 0; k < 8; k++ {
			off := 1 + k*(len(op.Data)-1)/8
			if off >= len(op.Data) {
				off = len(op.Data) - 1
			}
			if !seen[off] {
				seen[off] = true
				pts = append(pts, crashPoint{op: i, partial: off})
			}
		}
	}
	return pts
}

// crashScript parameterizes the scripted workload.
type crashScript struct {
	flushEvery int          // auto-flush threshold (0 = never)
	nOps       int          // operations, each one a mark
	flushAt    map[int]bool // ops that are a forced Flush
	compactAt  map[int]bool // ops that are a forced Compact
	minMerges  int64        // tier merges the workload must have run
}

var (
	// flushScript: threshold 4 ⇒ an auto-flush inside the seeding adds
	// already, and segments churn for the rest of the run.
	flushScript = crashScript{
		flushEvery: 4, nOps: 34,
		flushAt:   map[int]bool{12: true, 24: true},
		compactAt: map[int]bool{18: true, 30: true},
	}
	// mergeScript: a flush every two resident documents makes one- to
	// three-document segments, so every fourth flush merges and the
	// merged ones merge again; updates and removals leave dead copies and
	// tombstones for the merges to drop or keep.
	mergeScript = crashScript{flushEvery: 2, nOps: 44, minMerges: 4}
	// journalScript: everything stays resident between the two
	// compactions, so the journal holds up to ~20 records when it is cut.
	journalScript = crashScript{
		nOps:      54,
		compactAt: map[int]bool{20: true, 40: true},
	}
)

// crashWorkload drives the scripted workload and returns the marks.
func crashWorkload(t *testing.T, s *Segmented, sc crashScript, seed int64) []crashMark {
	t.Helper()
	fs := s.fs.(*fsio.MemFS)
	rng := rand.New(rand.NewSource(seed))
	docs := make(map[string]*tree.Tree)
	marks := []crashMark{{traceEnd: fs.TraceLen(), bags: snapshotBags(s.forest), docs: cloneDocs(docs)}}
	mark := func() {
		marks = append(marks, crashMark{
			traceEnd: fs.TraceLen(),
			bags:     snapshotBags(s.forest),
			docs:     cloneDocs(docs),
		})
	}
	ids := func() []string {
		out := make([]string, 0, len(docs))
		for id := range docs {
			out = append(out, id)
		}
		sort.Strings(out)
		return out
	}
	nextID := 0
	add := func() {
		id := fmt.Sprintf("doc-%02d", nextID)
		tr := gen.XMark(int64(200+nextID), 22+rng.Intn(16))
		nextID++
		if err := s.Add(id, tr.Clone()); err != nil {
			t.Fatalf("add %s: %v", id, err)
		}
		docs[id] = tr
	}
	for op := 1; op <= sc.nOps; op++ {
		switch {
		case op <= 5: // seed the memtable
			add()
			if op == 5 {
				if ms := s.Forest().LookupTopK(gen.XMark(991, 40), 3); len(ms) == 0 {
					t.Fatal("top-k lookup over the memtable returned nothing")
				}
			}
		case sc.flushAt[op]: // forced flush mid-stream
			if err := s.Flush(); err != nil {
				t.Fatalf("op %d flush: %v", op, err)
			}
		case sc.compactAt[op]: // forced compaction mid-stream
			if err := s.Compact(); err != nil {
				t.Fatalf("op %d compact: %v", op, err)
			}
		case rng.Float64() < 0.22 && len(docs) < 12:
			add()
		case rng.Float64() < 0.22 && len(docs) > 3:
			id := ids()[rng.Intn(len(docs))]
			if err := s.Remove(id); err != nil {
				t.Fatalf("op %d remove %s: %v", op, id, err)
			}
			delete(docs, id)
		default:
			id := ids()[rng.Intn(len(docs))]
			_, log, err := gen.RandomScript(rng, docs[id], 2+rng.Intn(3), gen.DefaultMix)
			if err != nil {
				t.Fatalf("op %d script: %v", op, err)
			}
			if _, err := s.Update(id, docs[id], log); err != nil {
				t.Fatalf("op %d update %s: %v", op, id, err)
			}
		}
		mark()
	}
	if st := s.Stats(); st.Segments == 0 {
		t.Fatalf("workload left no live segments: %+v", st)
	}
	return marks
}

func runCrashHarness(t *testing.T, sc crashScript, syncMode bool, seed int64) {
	fs := fsio.NewMemFS()
	s, err := CreateSegmentedFS(fs, "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSync(syncMode)
	s.SetFlushThreshold(sc.flushEvery)
	col := obs.NewCollector()
	s.SetCollector(col)
	marks := crashWorkload(t, s, sc, seed)
	merges := col.Snapshot().Counters["store_merges"]
	if merges < sc.minMerges {
		t.Fatalf("the workload ran %d merges, want at least %d", merges, sc.minMerges)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	trace := fs.Trace()
	query := gen.XMark(991, 40)
	createdAt := marks[0].traceEnd // trace length once the store fully existed

	for _, pt := range crashPoints(trace) {
		name := fmt.Sprintf("cut %d+%db", pt.op, pt.partial)
		crashed := fs.CrashClone(pt.op, pt.partial)
		rs, err := OpenSegmentedFS(crashed, "idx.pqg")
		if err != nil {
			// Only legal before the initial manifest became visible; after
			// that, recovery must always succeed — a torn segment write, a
			// half-replaced manifest or a stale journal are all expected
			// wreckage, never fatal.
			if pt.op >= createdAt {
				t.Fatalf("%s: recovery failed: %v", name, err)
			}
			if !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s: pre-creation recovery error should be NotExist, got: %v", name, err)
			}
			if crashed.OpenHandles() != 0 {
				t.Fatalf("%s: %d handles leaked on failed open", name, crashed.OpenHandles())
			}
			continue
		}
		if err := rs.Forest().SelfCheck(); err != nil {
			t.Fatalf("%s: recovered forest corrupt: %v", name, err)
		}

		// Prefix invariant: the recovered logical state is the committed
		// state after the last acked op (a) or the one in flight (a+1).
		// Flush and Compact appear in the mark list too — with bags equal to
		// their predecessor's, because reorganizing storage changes nothing
		// logical — so a cut inside either resolves to one of those marks.
		a := 0
		for i, mk := range marks {
			if mk.traceEnd <= pt.op {
				a = i
			}
		}
		got := snapshotBags(rs.Forest())
		k := -1
		if bagsEqual(got, marks[a].bags) {
			k = a
		} else if a+1 < len(marks) && bagsEqual(got, marks[a+1].bags) {
			k = a + 1
		}
		if k < 0 {
			t.Fatalf("%s: recovered state matches neither committed state %d (acked, sync=%v) nor %d (in flight)",
				name, a, syncMode, a+1)
		}

		// Differential recovery: the recovered index — with whatever mix of
		// resident and segment-served documents the cut left — must be
		// byte-identical to, and answer identically to, an all-in-RAM
		// forest rebuilt from the surviving documents.
		rebuilt := forest.New(p33)
		for id, tr := range marks[k].docs {
			if err := rebuilt.Add(id, tr); err != nil {
				t.Fatalf("%s: rebuild: %v", name, err)
			}
		}
		if !bytes.Equal(snapshotBytes(t, rs.Forest()), snapshotBytes(t, rebuilt)) {
			t.Fatalf("%s: recovered snapshot differs from rebuilt-from-scratch (state %d)", name, k)
		}
		if got, want := rs.Forest().Lookup(query, 0.75), rebuilt.Lookup(query, 0.75); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Lookup diverges after recovery: %v vs %v", name, got, want)
		}
		if got, want := rs.Forest().SimilarityJoin(0.8, 2), rebuilt.SimilarityJoin(0.8, 2); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: SimilarityJoin diverges after recovery: %v vs %v", name, got, want)
		}
		if got, want := rs.Forest().LookupTopK(query, 5), rebuilt.LookupTopK(query, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: LookupTopK diverges after recovery: %v vs %v", name, got, want)
		}

		// Accounting sanity: the journal is at least a header, the manifest
		// agrees with the open segments, and nothing negative snuck into
		// the recovery stats.
		if js, err := rs.JournalSize(); err != nil || js < journalHeaderLen {
			t.Fatalf("%s: journal size %d, %v", name, js, err)
		}
		ri := rs.Recovery()
		if ri.TornBytes < 0 || ri.Records < 0 || ri.Bytes < 0 || ri.DiscardedBytes < 0 {
			t.Fatalf("%s: negative recovery stats: %+v", name, ri)
		}
		st := rs.Stats()
		if st.ResidentDocs+st.EvictedDocs != rs.Forest().Len() {
			t.Fatalf("%s: %d resident + %d evicted != %d registered",
				name, st.ResidentDocs, st.EvictedDocs, rs.Forest().Len())
		}
		if err := rs.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		if crashed.OpenHandles() != 0 {
			t.Fatalf("%s: %d handles leaked after recovery", name, crashed.OpenHandles())
		}
	}
	t.Logf("workload: %d ops (%d merges), %d trace ops, %d crash points",
		len(marks)-1, merges, len(trace), len(crashPoints(trace)))
}

func TestSegCrashConsistencySynced(t *testing.T)     { runCrashHarness(t, flushScript, true, 77) }
func TestSegCrashConsistencyUnsynced(t *testing.T)   { runCrashHarness(t, flushScript, false, 1077) }
func TestMergeCrashConsistencySynced(t *testing.T)   { runCrashHarness(t, mergeScript, true, 51) }
func TestMergeCrashConsistencyUnsynced(t *testing.T) { runCrashHarness(t, mergeScript, false, 1051) }
func TestCrashConsistencySynced(t *testing.T)        { runCrashHarness(t, journalScript, true, 42) }
func TestCrashConsistencyUnsynced(t *testing.T)      { runCrashHarness(t, journalScript, false, 1042) }

// runDoubleCrash cuts power a second time while recovery itself is
// writing (truncating the journal tail, resetting a stale journal,
// retrying obsolete-segment removals): recovery of a recovered-then-
// crashed store must still come up clean.
func runDoubleCrash(t *testing.T, build func(s *Segmented)) {
	fs := fsio.NewMemFS()
	s, err := CreateSegmentedFS(fs, "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	build(s)
	s.Close()

	trace := fs.Trace()
	for cut := 0; cut <= len(trace); cut++ {
		first := fs.CrashClone(cut, 0)
		if _, err := OpenSegmentedFS(first, "idx.pqg"); err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("cut %d: %v", cut, err)
			}
			continue
		}
		rtrace := first.Trace()
		for rcut := 0; rcut <= len(rtrace); rcut++ {
			second := first.CrashClone(rcut, 0)
			rs, err := OpenSegmentedFS(second, "idx.pqg")
			if err != nil {
				t.Fatalf("cut %d/%d: double-crash recovery failed: %v", cut, rcut, err)
			}
			if err := rs.Forest().SelfCheck(); err != nil {
				t.Fatalf("cut %d/%d: %v", cut, rcut, err)
			}
			rs.Close()
		}
	}
}

// TestSegCrashDuringRecovery: the wreckage holds segments, a promoted
// document, a journaled tombstone and obsolete files.
func TestSegCrashDuringRecovery(t *testing.T) {
	runDoubleCrash(t, func(s *Segmented) {
		doc := gen.XMark(3, 50)
		if err := s.Add("a", doc.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := s.Add("b", tree.MustParse("x(y z)")); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		_, log, err := gen.RandomScript(rng, doc, 4, gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Update("a", doc, log); err != nil { // promotes "a" out of the segment
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil { // second segment + tombstone-free re-store
			t.Fatal(err)
		}
		if err := s.Remove("b"); err != nil { // journaled tombstone of an evicted doc
			t.Fatal(err)
		}
		if err := s.Compact(); err != nil { // merge + obsolete-file GC
			t.Fatal(err)
		}
		if err := s.Add("c", tree.MustParse("m(n o p)")); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCrashDuringRecovery: the wreckage is mostly journal — records
// before and after one compaction, never a flush.
func TestCrashDuringRecovery(t *testing.T) {
	runDoubleCrash(t, func(s *Segmented) {
		doc := gen.XMark(3, 60)
		if err := s.Add("a", doc.Clone()); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		_, log, err := gen.RandomScript(rng, doc, 4, gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Update("a", doc, log); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := s.Add("b", tree.MustParse("x(y z)")); err != nil {
			t.Fatal(err)
		}
	})
}
