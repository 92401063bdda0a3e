package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/gen"
	"pqgram/internal/tree"
)

// faultSweepWorkload drives one store through a fixed mutation script
// (adds, updates, a remove, a compaction, more mutations) on a
// fault-injecting filesystem, auto-flushing at two dirty documents so
// that the swept faults land inside segment writes, the manifest replace,
// eviction and journal resets as well as inside journal appends.
// Individual operations are allowed to fail —
// a failed op is simply not acknowledged. The invariant checked at the
// end is the durability contract: reopening from the underlying disk
// state recovers exactly the acknowledged operations, no matter which
// single filesystem op was broken. Returns the number of mutating fs ops
// the workload issued, so callers can sweep a fault across every one.
func faultSweepWorkload(t *testing.T, syncMode bool, arm func(*fsio.FaultFS)) int64 {
	t.Helper()
	mem := fsio.NewMemFS()
	ffs := fsio.NewFaultFS(mem)
	if arm != nil {
		arm(ffs)
	}
	s, err := CreateSegmentedFS(ffs, "idx.pqg", p33)
	if err != nil {
		// Creation failed under the fault: acceptable, as long as nothing
		// leaked. There is no store to check a recovery contract against.
		if n := mem.OpenHandles(); n != 0 {
			t.Fatalf("create failed (%v) with %d handles still open", err, n)
		}
		return ffs.Ops()
	}
	s.SetSync(syncMode)
	s.SetFlushThreshold(2)

	ids := []string{"d0", "d1", "d2", "d3", "d4"}
	docs := make([]*tree.Tree, len(ids))
	for i := range docs {
		docs[i] = gen.DBLP(int64(20+i), 50)
	}
	rng := rand.New(rand.NewSource(21))
	update := func(i int) {
		// The script is generated (and the rng advanced) whether or not
		// the update is acknowledged, so every sweep run sees the same ops.
		_, log, err := gen.RandomScript(rng, docs[i], 4, gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		s.Update(ids[i], docs[i], log)
	}
	for i := 0; i < 4; i++ {
		s.Add(ids[i], docs[i].Clone())
	}
	update(0)
	s.Remove("d1")
	s.Compact()
	s.Add("d4", docs[4].Clone())
	update(2)

	// The contract: the disk state recovers to exactly the acknowledged
	// operations — which is, by construction, the live in-memory forest.
	live := snapshotBytes(t, s.Forest())
	s.Close()
	re, err := OpenSegmentedFS(mem, "idx.pqg")
	if err != nil {
		t.Fatalf("reopen after faulted workload: %v", err)
	}
	if recovered := snapshotBytes(t, re.Forest()); !bytes.Equal(live, recovered) {
		t.Fatalf("recovered state diverges from acknowledged state (%d vs %d snapshot bytes)",
			len(recovered), len(live))
	}
	if err := re.Forest().SelfCheck(); err != nil {
		t.Fatal(err)
	}
	re.Close()
	if n := mem.OpenHandles(); n != 0 {
		t.Fatalf("%d handles leaked", n)
	}
	return ffs.Ops()
}

// TestJournalFaultSweep breaks every single filesystem operation of a
// mixed workload, once with ENOSPC and once with a torn 3-byte write
// followed by EIO, in both sync modes: acknowledged operations must
// always survive a reopen, failed ones must never partially apply.
func TestJournalFaultSweep(t *testing.T) {
	for _, syncMode := range []bool{false, true} {
		total := faultSweepWorkload(t, syncMode, nil)
		if total < 79 {
			t.Fatalf("workload issued only %d fs ops; sweep would prove little", total)
		}
		t.Logf("sync=%v: sweeping %d filesystem ops", syncMode, total)
		for n := int64(1); n <= total; n++ {
			n := n
			t.Run(fmt.Sprintf("sync=%v/enospc@%d", syncMode, n), func(t *testing.T) {
				faultSweepWorkload(t, syncMode, func(f *fsio.FaultFS) { f.FailOp(n, fsio.ErrNoSpace) })
			})
			t.Run(fmt.Sprintf("sync=%v/torn@%d", syncMode, n), func(t *testing.T) {
				faultSweepWorkload(t, syncMode, func(f *fsio.FaultFS) { f.ShortWrite(n, 3, fsio.ErrIO) })
			})
		}
	}
}

func sweepForest(ids ...string) *forest.Index {
	f := forest.New(p33)
	for i, id := range ids {
		if err := f.Add(id, gen.DBLP(int64(i), 40)); err != nil {
			panic(err)
		}
	}
	return f
}

func snapshotBytes(t *testing.T, f *forest.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveFileAllOrNothing fails every filesystem op of an atomic snapshot
// replacement in turn: the file on disk must afterwards hold either the
// complete old snapshot or the complete new one — never a blend, never a
// truncation — and no handle may leak.
func TestSaveFileAllOrNothing(t *testing.T) {
	oldF := sweepForest("a", "b")
	newF := sweepForest("a", "b", "c", "d")
	oldBytes := snapshotBytes(t, oldF)
	newBytes := snapshotBytes(t, newF)

	// Count the ops of one replacement, and find the rename among them:
	// every op before it succeeds and records exactly one trace entry, so
	// fault op n is trace entry n-1 up to and including the rename.
	probeMem := fsio.NewMemFS()
	probe := fsio.NewFaultFS(probeMem)
	if err := SaveFileFS(probe, "x.pqg", newF); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	trace := probeMem.Trace()
	renameOp := int64(0)
	for i, op := range trace {
		if op.Kind == fsio.OpRename {
			renameOp = int64(i) + 1
			break
		}
	}
	if renameOp == 0 {
		t.Fatal("probe replacement issued no rename")
	}

	for n := int64(1); n <= total; n++ {
		mem := fsio.NewMemFS()
		if err := SaveFileFS(mem, "x.pqg", oldF); err != nil {
			t.Fatal(err)
		}
		ffs := fsio.NewFaultFS(mem)
		ffs.FailOp(n, fsio.ErrNoSpace)
		err := SaveFileFS(ffs, "x.pqg", newF)

		got, lerr := fsio.ReadFile(mem, "x.pqg")
		if lerr != nil {
			t.Fatalf("op %d: snapshot unreadable after fault: %v", n, lerr)
		}
		switch {
		case bytes.Equal(got, oldBytes):
			if err == nil {
				t.Fatalf("op %d: SaveFile reported success but old snapshot survived", n)
			}
		case bytes.Equal(got, newBytes):
			// New snapshot in place. Success is only honest when the
			// failed op came at or after the rename: a failure before it
			// (a temp-file write or its fsync) must be reported.
			if err == nil && n < renameOp {
				t.Fatalf("op %d (%s, before the rename) failed but SaveFile reported success", n, trace[n-1].Kind)
			}
		default:
			t.Fatalf("op %d: snapshot is neither old nor new (%d bytes)", n, len(got))
		}
		if handles := mem.OpenHandles(); handles != 0 {
			t.Fatalf("op %d: %d handles leaked (err: %v)", n, handles, err)
		}
	}
}

// TestCreateStoreErrorPathsNoLeak fails every op of store creation: any
// outcome must leave zero open handles behind.
func TestCreateStoreErrorPathsNoLeak(t *testing.T) {
	probe := fsio.NewFaultFS(fsio.NewMemFS())
	if _, err := CreateSegmentedFS(probe, "idx.pqg", p33); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	for n := int64(1); n <= total; n++ {
		mem := fsio.NewMemFS()
		ffs := fsio.NewFaultFS(mem)
		ffs.FailOp(n, fsio.ErrIO)
		s, err := CreateSegmentedFS(ffs, "idx.pqg", p33)
		if err == nil {
			s.Close()
		}
		if handles := mem.OpenHandles(); handles != 0 {
			t.Fatalf("op %d: %d handles leaked (err: %v)", n, handles, err)
		}
	}
}

// TestOpenStoreErrorPathsNoLeak fails every op of a reopen — both the
// clean-journal path (truncate to the last boundary) and the
// reinitialize path (foreign journal), each with two live segments, a
// pending obsolete-file removal and journal records to replay — and
// checks for leaked handles.
func TestOpenStoreErrorPathsNoLeak(t *testing.T) {
	mem := fsio.NewMemFS()
	s, err := CreateSegmentedFS(mem, "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add("a", tree.MustParse("r(x y)")); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("b", tree.MustParse("r(z)")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("c", tree.MustParse("r(w)")); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	scenarios := []struct {
		name    string
		prepare func(fs *fsio.MemFS)
	}{
		{"clean", func(fs *fsio.MemFS) {}},
		{"foreign-journal", func(fs *fsio.MemFS) {
			if err := fsio.WriteFile(fs, "idx.pqg.wal", []byte("garbage!"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, sc := range scenarios {
		probeFS := mem.CrashClone(mem.TraceLen(), 0)
		sc.prepare(probeFS)
		probe := fsio.NewFaultFS(probeFS)
		ps, err := OpenSegmentedFS(probe, "idx.pqg")
		if err != nil {
			t.Fatalf("%s: unfaulted reopen failed: %v", sc.name, err)
		}
		ps.Close()
		total := probe.Ops()
		for n := int64(1); n <= total; n++ {
			clone := mem.CrashClone(mem.TraceLen(), 0)
			sc.prepare(clone)
			ffs := fsio.NewFaultFS(clone)
			ffs.FailOp(n, fsio.ErrIO)
			rs, err := OpenSegmentedFS(ffs, "idx.pqg")
			if err == nil {
				rs.Close()
			}
			if handles := clone.OpenHandles(); handles != 0 {
				t.Fatalf("%s op %d: %d handles leaked (err: %v)", sc.name, n, handles, err)
			}
		}
	}
}

// TestRenameIsFollowedByDirSync: every rename that publishes a file — an
// exported snapshot, a new segment, a replaced manifest — must be
// followed by an fsync of the directory before the next rename, or the
// new entry can evaporate in a power cut that the file data survives.
func TestRenameIsFollowedByDirSync(t *testing.T) {
	check := func(name string, mem *fsio.MemFS, wantRenames int) {
		t.Helper()
		renames, unsynced := 0, -1
		for i, op := range mem.Trace() {
			switch op.Kind {
			case fsio.OpRename:
				if unsynced >= 0 {
					t.Fatalf("%s: rename at trace op %d has no directory fsync before the next rename", name, unsynced)
				}
				renames++
				unsynced = i
			case fsio.OpDirSync:
				unsynced = -1
			}
		}
		if unsynced >= 0 {
			t.Fatalf("%s: rename at trace op %d has no directory fsync after it", name, unsynced)
		}
		if renames != wantRenames {
			t.Fatalf("%s: %d renames in trace, want %d", name, renames, wantRenames)
		}
	}

	mem := fsio.NewMemFS()
	if err := SaveFileFS(mem, "idx.pqg", sweepForest("a")); err != nil {
		t.Fatal(err)
	}
	check("SaveFileFS", mem, 1)

	mem2 := fsio.NewMemFS()
	s, err := CreateSegmentedFS(mem2, "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check("Create", mem2, 1) // the manifest
	if err := s.Add("a", tree.MustParse("r(x)")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	check("Flush", mem2, 3) // + segment, manifest
	if err := s.Add("b", tree.MustParse("r(y)")); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check("Compact", mem2, 5) // + segment, manifest
}

// TestAddAllFailureLeavesNoRecords is the regression test for a batch
// that bricked the store: when the k-th journal write of a 5-document
// AddAll failed, the k-1 records already written stayed durable while
// memory held none of the documents; the retried batch then journaled all
// five again, and the next open died replaying a duplicate add. A batch
// is now one write, rolled back whole: for every k that write is failed
// (ENOSPC, and a 3-byte torn write + EIO), the batch retried, and the
// reopened state must equal the live one.
func TestAddAllFailureLeavesNoRecords(t *testing.T) {
	docs := make([]forest.Doc, 5)
	for i := range docs {
		docs[i] = forest.Doc{ID: string(rune('a' + i)), Tree: gen.DBLP(int64(30+i), 40)}
	}
	arms := map[string]func(*fsio.FaultFS, int64){
		"enospc": func(f *fsio.FaultFS, k int64) { f.FailOp(k, fsio.ErrNoSpace) },
		"torn":   func(f *fsio.FaultFS, k int64) { f.ShortWrite(k, 3, fsio.ErrIO) },
	}
	for name, arm := range arms {
		for k := int64(1); k <= 5; k++ {
			mem := fsio.NewMemFS()
			ffs := fsio.NewFaultFS(mem)
			s, err := CreateSegmentedFS(ffs, "idx.pqg", p33)
			if err != nil {
				t.Fatal(err)
			}
			// Unsynced, the only mutating fs ops of an AddAll are its journal
			// writes, so "the k-th op from now" is the k-th journal write.
			arm(ffs, k)
			err = s.AddAll(docs, 2)
			if ffs.Injected() == 0 {
				// The batch is a single write: only k = 1 can hit it.
				if k == 1 || err != nil {
					t.Fatalf("%s@%d: no fault injected, AddAll: %v", name, k, err)
				}
			} else {
				if err == nil {
					t.Fatalf("%s@%d: AddAll succeeded through a failed journal write", name, k)
				}
				if n := s.Forest().Len(); n != 0 {
					t.Fatalf("%s@%d: failed batch left %d documents in memory", name, k, n)
				}
				ffs.Reset()
				if err := s.AddAll(docs, 2); err != nil {
					t.Fatalf("%s@%d: retry: %v", name, k, err)
				}
			}
			live := snapshotBytes(t, s.Forest())
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenSegmentedFS(mem, "idx.pqg")
			if err != nil {
				t.Fatalf("%s@%d: reopen after retried batch: %v", name, k, err)
			}
			if !bytes.Equal(snapshotBytes(t, re.Forest()), live) {
				t.Fatalf("%s@%d: recovered state diverges from the acknowledged batch", name, k)
			}
			re.Close()
			if n := mem.OpenHandles(); n != 0 {
				t.Fatalf("%s@%d: %d handles leaked", name, k, n)
			}
		}
	}
}

// TestSyncedAppendFsyncFailure fails the fsync of one synced journal
// append. The ordered MemFS keeps every written byte whether or not the
// fsync succeeded, so only the store's own handling can lose the
// record: the Put must return the error, the store must refuse the next
// mutation as poisoned, and a reopen must not hold the document.
func TestSyncedAppendFsyncFailure(t *testing.T) {
	mem := fsio.NewMemFS()
	ffs := fsio.NewFaultFS(mem)
	s, err := CreateSegmentedFS(ffs, "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSync(true)
	// The Put journals one append: its single write, then its fsync.
	ffs.FailOp(2, fsio.ErrIO)
	if _, err := s.Put("a", tree.MustParse("r(x y)")); !errors.Is(err, fsio.ErrIO) {
		t.Fatalf("Put with a failed journal fsync returned %v, want %v", err, fsio.ErrIO)
	}
	if got := ffs.Injected(); got != 1 {
		t.Fatalf("%d faults injected, want 1", got)
	}
	if _, err := s.Put("b", tree.MustParse("r(z)")); err == nil || !strings.Contains(err.Error(), "unusable after earlier failure") {
		t.Fatalf("mutation after a failed fsync returned %v, want the poisoned-store error", err)
	}
	s.Close()
	re, err := OpenSegmentedFS(mem, "idx.pqg")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, id := range []string{"a", "b"} {
		if re.Forest().Has(id) {
			t.Fatalf("reopen holds %q, whose Put was never acknowledged", id)
		}
	}
}
