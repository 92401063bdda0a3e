package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/gen"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

func newStore(t *testing.T) (*Segmented, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "idx.pqg")
	s, err := CreateSegmented(path, p33)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

func TestStoreAddRemoveUpdatePersist(t *testing.T) {
	s, path := newStore(t)
	doc := gen.XMark(1, 300)
	if err := s.Add("doc", doc.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("doc", doc); err == nil {
		t.Fatal("duplicate add accepted")
	}
	if err := s.Add("gone", tree.MustParse("a(b)")); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("gone"); err == nil {
		t.Fatal("double remove accepted")
	}

	// Incremental updates, journaled.
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 4; round++ {
		_, log, err := gen.RandomScript(rng, doc, 5+rng.Intn(10), gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Update("doc", doc, log); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: journal replay must reproduce the live state.
	s2, err := OpenSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Forest().Len() != 1 {
		t.Fatalf("reopened forest has %d trees", s2.Forest().Len())
	}
	want := profile.BuildIndex(doc, p33)
	if !s2.Forest().TreeIndex("doc").Equal(want) {
		t.Fatal("recovered bag differs from the live document's index")
	}
	if err := s2.Forest().SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreUpdateJournalIsSmall(t *testing.T) {
	s, _ := newStore(t)
	doc := gen.DBLP(2, 5000)
	if err := s.Add("doc", doc.Clone()); err != nil {
		t.Fatal(err)
	}
	before, err := s.JournalSize()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	_, log, err := gen.RandomScript(rng, doc, 5, gen.DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update("doc", doc, log); err != nil {
		t.Fatal(err)
	}
	after, err := s.JournalSize()
	if err != nil {
		t.Fatal(err)
	}
	delta := after - before
	full, err := Size(s.Forest())
	if err != nil {
		t.Fatal(err)
	}
	// The persistent update cost must be a small fraction of the snapshot:
	// that is the "incrementally maintainable" promise made durable.
	if delta*10 > full {
		t.Fatalf("journal grew by %d bytes for 5 edits; full snapshot is %d", delta, full)
	}
}

func TestStoreCompact(t *testing.T) {
	s, path := newStore(t)
	doc := gen.XMark(4, 200)
	if err := s.Add("doc", doc.Clone()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		_, log, err := gen.RandomScript(rng, doc, 5, gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Update("doc", doc, log); err != nil {
			t.Fatal(err)
		}
	}
	big, _ := s.JournalSize()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	small, _ := s.JournalSize()
	if small >= big || small != int64(journalHeaderLen) {
		t.Fatalf("journal after compact = %d bytes (was %d)", small, big)
	}
	s.Close()

	s2, err := OpenSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.Forest().TreeIndex("doc").Equal(profile.BuildIndex(doc, p33)) {
		t.Fatal("compacted state wrong after reopen")
	}
}

// TestStoreCrashRecovery simulates crashes by truncating the journal at
// every byte offset: reopening must always succeed and recover a state
// equal to some prefix of the committed operations.
func TestStoreCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.pqg")
	s, err := CreateSegmented(path, p33)
	if err != nil {
		t.Fatal(err)
	}
	doc := gen.XMark(6, 150)
	// Committed states: after each operation, snapshot the expected bags.
	type state map[string]profile.Index
	snapshot := func(f *forest.Index) state {
		st := make(state)
		for _, id := range f.IDs() {
			st[id] = f.TreeIndex(id).Clone()
		}
		return st
	}
	var states []state
	var offsets []int64
	mark := func() {
		states = append(states, snapshot(s.Forest()))
		off, err := s.JournalSize()
		if err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, off)
	}
	mark()
	if err := s.Add("a", doc.Clone()); err != nil {
		t.Fatal(err)
	}
	mark()
	work := doc.Clone()
	rng := rand.New(rand.NewSource(7))
	_, log, err := gen.RandomScript(rng, work, 8, gen.DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update("a", work, log); err != nil {
		t.Fatal(err)
	}
	mark()
	if err := s.Add("b", tree.MustParse("x(y z)")); err != nil {
		t.Fatal(err)
	}
	mark()
	if err := s.Remove("b"); err != nil {
		t.Fatal(err)
	}
	mark()
	s.Close()

	full, err := os.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for cut := 0; cut <= len(full); cut++ {
		cpath := filepath.Join(dir, fmt.Sprintf("c%d.pqg", cut))
		if err := copyFile(manifestPath(path), manifestPath(cpath)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cpath+".wal", full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := OpenSegmented(cpath)
		if err != nil {
			t.Fatalf("cut %d: reopen failed: %v", cut, err)
		}
		got := snapshot(rs.Forest())
		rs.Close()
		// The recovered state must equal the committed state whose journal
		// offset is the largest one <= cut.
		wantIdx := 0
		for i, off := range offsets {
			if off <= int64(cut) {
				wantIdx = i
			}
		}
		want := states[wantIdx]
		if len(got) != len(want) {
			t.Fatalf("cut %d: %d trees, want %d (state %d)", cut, len(got), len(want), wantIdx)
		}
		for id, bag := range want {
			if g, ok := got[id]; !ok || !g.Equal(bag) {
				t.Fatalf("cut %d: tree %q diverges from committed state %d", cut, id, wantIdx)
			}
		}
	}
}

func TestStoreRecoveredAppendable(t *testing.T) {
	// After recovering from a torn tail, new appends must work.
	path := filepath.Join(t.TempDir(), "idx.pqg")
	s, err := CreateSegmented(path, p33)
	if err != nil {
		t.Fatal(err)
	}
	s.Add("a", tree.MustParse("r(x)"))
	s.Add("b", tree.MustParse("r(y)"))
	s.Close()
	// Tear the last record.
	wal, err := os.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".wal", wal[:len(wal)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Forest().Len() != 1 || !s2.Forest().Has("a") {
		t.Fatalf("recovered %d trees", s2.Forest().Len())
	}
	if err := s2.Add("c", tree.MustParse("r(z)")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Forest().Len() != 2 || !s3.Forest().Has("c") {
		t.Fatal("append after recovery lost")
	}
}

func TestStoreSyncMode(t *testing.T) {
	s, _ := newStore(t)
	s.SetSync(true)
	if err := s.Add("a", tree.MustParse("r(x)")); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenStoreMissingBase(t *testing.T) {
	if _, err := OpenSegmented(filepath.Join(t.TempDir(), "nope.pqg")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing manifest: got %v, want NotExist", err)
	}
}

func TestStoreForeignJournalReset(t *testing.T) {
	s0, path := newStore(t)
	if err := s0.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".wal", []byte("garbage!"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Forest().Len() != 0 {
		t.Fatal("foreign journal produced trees")
	}
	if err := s.Add("a", tree.MustParse("r(x)")); err != nil {
		t.Fatal(err)
	}
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// TestStoreAddAllJournaled: a parallel bulk build journals every addition,
// survives a reopen without a flush, and rejects bad batches before
// touching the journal.
func TestStoreAddAllJournaled(t *testing.T) {
	s, path := newStore(t)
	docs := make([]forest.Doc, 24)
	for i := range docs {
		docs[i] = forest.Doc{ID: fmt.Sprintf("doc-%02d", i), Tree: gen.DBLP(int64(i%5), 60+i)}
	}
	if err := s.AddAll(docs, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.AddAll(docs[:1], 1); err == nil {
		t.Fatal("re-adding an indexed ID accepted")
	}
	dup := []forest.Doc{
		{ID: "fresh", Tree: tree.MustParse("a")},
		{ID: "fresh", Tree: tree.MustParse("b")},
	}
	if err := s.AddAll(dup, 2); err == nil {
		t.Fatal("in-batch duplicate accepted")
	}
	js, err := s.JournalSize()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if js2, _ := s2.JournalSize(); js2 != js {
		t.Fatalf("journal size changed across reopen: %d -> %d (failed batches leaked records?)", js, js2)
	}
	f := s2.Forest()
	if f.Len() != len(docs) {
		t.Fatalf("recovered %d trees, want %d", f.Len(), len(docs))
	}
	for _, d := range docs {
		if !f.TreeIndex(d.ID).Equal(profile.BuildIndex(d.Tree, p33)) {
			t.Fatalf("recovered bag of %s differs", d.ID)
		}
	}
	if err := f.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}
