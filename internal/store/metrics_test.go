package store

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/gen"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// runInstrumentedWorkload drives one store through a fixed add/lookup/
// update/compact sequence, optionally with a collector attached, and
// returns the store for further inspection. The workload is deterministic
// so two runs are comparable byte-for-byte.
func runInstrumentedWorkload(t *testing.T, path string, col *obs.Collector) *Segmented {
	t.Helper()
	s, err := CreateSegmented(path, p33)
	if err != nil {
		t.Fatal(err)
	}
	if col != nil {
		s.SetCollector(col)
	}
	docs := make([]*forest.Doc, 3)
	for i := range docs {
		d := gen.XMark(int64(10+i), 200)
		if err := s.Add([]string{"a", "b", "c"}[i], d); err != nil {
			t.Fatal(err)
		}
		docs[i] = &forest.Doc{ID: []string{"a", "b", "c"}[i], Tree: d}
	}
	q := gen.XMark(10, 200)
	s.Forest().Lookup(q, 0.6)
	s.Forest().Lookup(q, 0.9)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2; i++ {
		_, log, err := gen.RandomScript(rng, docs[i].Tree, 5, gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Update(docs[i].ID, docs[i].Tree, log); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMetricDeltas drives an instrumented store through a known op sequence
// and checks the counters record exactly those operations, including the
// replay metrics published when a collector attaches to a reopened store.
func TestMetricDeltas(t *testing.T) {
	profile.SetCollector(nil)
	col := obs.NewCollector()
	profile.SetCollector(col)
	t.Cleanup(func() { profile.SetCollector(nil) })

	path := filepath.Join(t.TempDir(), "idx.pqg")
	s := runInstrumentedWorkload(t, path, col)

	want := map[string]int64{
		"forest_adds":               3,
		"forest_lookups":            2,
		"forest_updates":            2,
		"store_journal_appends":     5, // 3 adds + 2 updates; Compact writes a segment instead
		"store_segment_compactions": 1,
	}
	snap := col.Snapshot()
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	// Every add and update builds a pq-gram profile through the global hook.
	if got := snap.Counters["profile_builds"]; got < 5 {
		t.Errorf("profile_builds = %d, want >= 5", got)
	}
	if h, ok := snap.Histograms["forest_lookup_ns"]; !ok || h.Count != 2 {
		t.Errorf("forest_lookup_ns count = %+v, want 2 samples", h)
	}
	if snap.Counters["store_journal_replays"] != 0 {
		t.Errorf("unexpected replay on a freshly created store")
	}
	// Stripe-load is a computed metric, registered at SetCollector time.
	if _, ok := snap.Values["forest_stripe_load"]; !ok {
		t.Error("forest_stripe_load missing from snapshot values")
	}

	// One post-compaction update, then reopen: the replay of that single
	// journal record must be published when the new collector attaches.
	// Doc "c" was never updated above, so its live tree is still gen.XMark(12).
	rng := rand.New(rand.NewSource(8))
	c := gen.XMark(12, 200)
	_, log, err := gen.RandomScript(rng, c, 3, gen.DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update("c", c, log); err != nil {
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
	col2 := obs.NewCollector()
	s2.SetCollector(col2)
	snap2 := col2.Snapshot()
	if got := snap2.Counters["store_journal_replays"]; got != 1 {
		t.Errorf("store_journal_replays = %d, want 1", got)
	}
	if got := snap2.Counters["store_journal_replay_records"]; got != 1 {
		t.Errorf("store_journal_replay_records = %d, want 1", got)
	}
	if got := snap2.Counters["store_journal_replay_bytes"]; got <= 0 {
		t.Errorf("store_journal_replay_bytes = %d, want > 0", got)
	}
}

// TestMetricsDifferentialSnapshot is the differential guarantee of the
// instrumentation layer: running the identical workload with metrics on and
// with metrics off must produce byte-identical index snapshots. Observation
// may never change what is observed.
func TestMetricsDifferentialSnapshot(t *testing.T) {
	dir := t.TempDir()
	plain := runInstrumentedWorkload(t, filepath.Join(dir, "plain.pqg"), nil)
	defer plain.Close()
	instr := runInstrumentedWorkload(t, filepath.Join(dir, "instr.pqg"), obs.NewCollector())
	defer instr.Close()

	var a, b bytes.Buffer
	if err := Save(&a, plain.Forest()); err != nil {
		t.Fatal(err)
	}
	if err := Save(&b, instr.Forest()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("snapshots diverge with metrics enabled: %d vs %d bytes", a.Len(), b.Len())
	}
}

// TestRecoveryMetricDeltas damages a store in each of the recoverable ways
// and checks that attaching a collector after reopen publishes exactly the
// matching anomaly counters.
func TestRecoveryMetricDeltas(t *testing.T) {
	build := func() *fsio.MemFS {
		mem := fsio.NewMemFS()
		s, err := CreateSegmentedFS(mem, "idx.pqg", p33)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Add("a", tree.MustParse("r(x y)")); err != nil {
			t.Fatal(err)
		}
		if err := s.Add("b", tree.MustParse("r(z w)")); err != nil {
			t.Fatal(err)
		}
		s.Close()
		return mem
	}
	mangleWal := func(mem *fsio.MemFS, f func(wal []byte) []byte) {
		wal, err := fsio.ReadFile(mem, "idx.pqg.wal")
		if err != nil {
			t.Fatal(err)
		}
		if err := fsio.WriteFile(mem, "idx.pqg.wal", f(wal), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name    string
		mangle  func(mem *fsio.MemFS)
		want    map[string]int64 // counter -> exact delta
		nonzero []string         // counter -> any positive delta
	}{
		{
			name:    "torn-tail",
			mangle:  func(mem *fsio.MemFS) { mangleWal(mem, func(w []byte) []byte { return w[:len(w)-3] }) },
			want:    map[string]int64{"store_journal_replay_records": 1, "store_replay_skipped_records": 0},
			nonzero: []string{"store_replay_torn_bytes"},
		},
		{
			name: "checksum-mismatch",
			mangle: func(mem *fsio.MemFS) {
				mangleWal(mem, func(w []byte) []byte { w[len(w)-1] ^= 0xff; return w })
			},
			want:    map[string]int64{"store_journal_replay_records": 1, "store_replay_skipped_records": 1},
			nonzero: []string{"store_replay_torn_bytes"},
		},
		{
			name: "stale-journal-after-compact-crash",
			mangle: func(mem *fsio.MemFS) {
				// Advance the manifest without resetting the journal — the
				// disk state a crash between the two last steps of a Flush
				// or Compact leaves behind.
				man := &manifest{pr: p33, nextSeq: 2}
				if _, _, err := writeManifestFile(mem, manifestPath("idx.pqg"), man); err != nil {
					t.Fatal(err)
				}
			},
			want:    map[string]int64{"store_journal_replay_records": 0, "store_replay_stale_discards": 1},
			nonzero: []string{"store_replay_discarded_bytes"},
		},
		{
			name: "foreign-journal",
			mangle: func(mem *fsio.MemFS) {
				mangleWal(mem, func([]byte) []byte { return []byte("garbage!") })
			},
			want: map[string]int64{
				"store_journal_replay_records": 0,
				"store_replay_journal_resets":  1,
				"store_replay_discarded_bytes": 8,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := build()
			tc.mangle(mem)
			s, err := OpenSegmentedFS(mem, "idx.pqg")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			col := obs.NewCollector()
			before := col.Snapshot()
			s.SetCollector(col)
			deltas := col.Snapshot().CounterDeltas(before)
			if deltas["store_journal_replays"] != 1 {
				t.Fatalf("store_journal_replays delta = %d, want 1 (all: %v)",
					deltas["store_journal_replays"], deltas)
			}
			for name, want := range tc.want {
				if got := deltas[name]; got != want {
					t.Errorf("%s delta = %d, want %d (all: %v)", name, got, want, deltas)
				}
			}
			for _, name := range tc.nonzero {
				if deltas[name] <= 0 {
					t.Errorf("%s delta = %d, want > 0 (all: %v)", name, deltas[name], deltas)
				}
			}
		})
	}
}
