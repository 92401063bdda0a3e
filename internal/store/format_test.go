package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pqgram/internal/fsio"
	"pqgram/internal/gen"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// TestFormatsByteStable pins the bytes of every on-disk format. The
// round-trip and byte-flip tests accept any self-consistent encoding; this
// one fails on a change to any byte a writer emits. A seeded script (add,
// flush, update of flushed documents, remove, flush, a PQGI export,
// compact, add) runs against MemFS, and the sha256 of every file it leaves
// — segments, manifest, journal, the export — plus of Save's output is
// compared with the recorded values. The MemFS trace length is pinned
// too: the crash harness derives its cut points from the trace, so a
// writer that issues its writes, syncs or renames differently moves
// every cut.
//
// A deliberate format change updates the values below together with
// STORAGE.md and the format's version byte.
func TestFormatsByteStable(t *testing.T) {
	mem := fsio.NewMemFS()
	s, err := CreateSegmentedFS(mem, "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// got collects "stage/file" → sha256 at three points: the journal
	// holding update and remove records, both flushed segments (the second
	// with a tombstone) before compaction retires them, and the end state.
	got := make(map[string]string)
	snapshot := func(stage string) {
		for _, p := range mem.Paths() {
			got[stage+"/"+p] = sha(readFileBytes(t, mem, p))
		}
	}
	rng := rand.New(rand.NewSource(39))
	docs := make(map[string]*tree.Tree)
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("doc-%02d", i)
		docs[id] = gen.RandomTree(rng, 20+rng.Intn(40))
		if err := s.Add(id, docs[id].Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("doc-%02d", i)
		_, log, err := gen.RandomScript(rng, docs[id], 3+rng.Intn(5), gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Update(id, docs[id], log); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Remove("doc-11"); err != nil {
		t.Fatal(err)
	}
	snapshot("updated")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	snapshot("flushed")
	if err := SaveFileFS(mem, "export.pqgi", s.Forest()); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("late", gen.RandomTree(rng, 30)); err != nil {
		t.Fatal(err)
	}
	snapshot("end")
	var buf bytes.Buffer
	if err := Save(&buf, s.Forest()); err != nil {
		t.Fatal(err)
	}
	got["Save"] = sha(buf.Bytes())
	got["trace"] = fmt.Sprint(mem.TraceLen())

	want := map[string]string{
		"Save":                       "73d72f246394b788cf512b17d7f478c75f9133b3339db56ff4c8f35348a2cec1",
		"end/export.pqgi":            "21f9b5735f220e401499561c970cf09c7a5837d7f345b9dc46e52b1b68932f49",
		"end/idx.pqg.000003.seg":     "dd271e664267ca51664ed1cbd2e50f7f65cec44231165633d9431af58b177951",
		"end/idx.pqg.manifest":       "f648c597ed6fc6d7060beed24c549349c78df39f6799f968cb3cf5be09118314",
		"end/idx.pqg.wal":            "cc45921873f3e27b19077e7a9796fa347879f8455a6641f6740b276d7ffdedb2",
		"flushed/idx.pqg.000001.seg": "232e04e3fe15f92fe8209f6807e367e42f962c18a1caef1f8f9aca423c58d54c",
		"flushed/idx.pqg.000002.seg": "b9951cd86580b378109ce74549654ea5f7c05c7928cd2354d969a69cf15d5894",
		"flushed/idx.pqg.manifest":   "aeaa8bcaaf7cac3cbbdf68c3e48d9080e99651dec114f51a6e49031de91f9ef7",
		"flushed/idx.pqg.wal":        "0b00f95ba7aedbc80a089c32a85f9796978c69d3b31aa4a2793a02b6b5bab554",
		"trace":                      "81",
		"updated/idx.pqg.000001.seg": "232e04e3fe15f92fe8209f6807e367e42f962c18a1caef1f8f9aca423c58d54c",
		"updated/idx.pqg.manifest":   "49613991ff7d4dbb6de635f25139a741676c62ec4b6bf801766ab51eae15d3d7",
		"updated/idx.pqg.wal":        "9495ad44a879a3542e4e4448eafde9ced4e78f90395cd9599734a540b7a67907",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("on-disk bytes changed:\n got %s\nwant %s", dump(got), dump(want))
	}
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func dump(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "\n\t%q: %q,", k, m[k])
	}
	return sb.String()
}

// TestPutUvarintAllocFree pins the encoders' varint writes to zero
// allocations: writeSortedBag of a document-sized bag (363 distinct
// tuples, two varints each) into a reused bytes.Buffer — the journal's
// and the segment's bag buffers — and into a countingCRCWriter, the file
// writers' stream. A varint buffer that escapes through io.Writer costs
// one allocation per varint, 726 per bag here.
func TestPutUvarintAllocFree(t *testing.T) {
	bag := profile.Freeze(profile.BuildIndex(gen.DBLP(5, 150), profile.Default))
	if bag.Distinct() < 300 {
		t.Fatalf("fixture bag has %d distinct tuples, want a document-sized one", bag.Distinct())
	}
	var buf bytes.Buffer
	writeSortedBag(&buf, bag) // grow the buffer once
	if got := testing.AllocsPerRun(50, func() {
		buf.Reset()
		writeSortedBag(&buf, bag)
	}); got != 0 {
		t.Errorf("writeSortedBag into a bytes.Buffer: %v allocations per bag, want 0", got)
	}
	cw := newCRCWriter(io.Discard)
	if got := testing.AllocsPerRun(50, func() { writeSortedBag(cw, bag) }); got != 0 {
		t.Errorf("writeSortedBag into a countingCRCWriter: %v allocations per bag, want 0", got)
	}
}

// TestUvarintLen holds uvarintLen, which sizes a memtable bag's region
// before it is encoded, to binary.AppendUvarint at the edges of every
// length.
func TestUvarintLen(t *testing.T) {
	vals := []uint64{0, 1, 1<<63 + 5, ^uint64(0)}
	for k := 7; k < 64; k += 7 {
		vals = append(vals, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, v := range vals {
		if got, want := uvarintLen(v), len(binary.AppendUvarint(nil, v)); got != want {
			t.Fatalf("uvarintLen(%d) = %d, want %d", v, got, want)
		}
	}
}
