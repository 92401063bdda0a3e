package store

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/gen"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

var p33 = profile.Params{P: 3, Q: 3}

func sampleForest(t *testing.T) *forest.Index {
	t.Helper()
	f := forest.New(p33)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5; i++ {
		if err := f.Add(fmt.Sprintf("doc-%d", i), gen.RandomTree(rng, 20+rng.Intn(60))); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func forestsEqual(a, b *forest.Index) bool {
	if a.Params() != b.Params() || a.Len() != b.Len() {
		return false
	}
	for _, id := range a.IDs() {
		bi := b.TreeIndex(id)
		if bi == nil || !a.TreeIndex(id).Equal(bi) {
			return false
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	f := sampleForest(t)
	var buf bytes.Buffer
	if err := Save(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !forestsEqual(f, g) {
		t.Fatal("round trip changed the index")
	}
}

func TestRoundTripEmpty(t *testing.T) {
	f := forest.New(profile.Params{P: 1, Q: 2})
	var buf bytes.Buffer
	if err := Save(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 0 || g.Params() != f.Params() {
		t.Fatal("empty round trip wrong")
	}
}

func TestDeterministicOutput(t *testing.T) {
	f := sampleForest(t)
	var b1, b2 bytes.Buffer
	if err := Save(&b1, f); err != nil {
		t.Fatal(err)
	}
	if err := Save(&b2, f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("Save output not deterministic")
	}
}

func TestLoadedLookupWorks(t *testing.T) {
	f := forest.New(p33)
	base := gen.XMark(7, 120)
	f.Add("base", base)
	rng := rand.New(rand.NewSource(8))
	p, _, err := gen.Perturb(rng, base, 4, gen.DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	f.Add("near", p)

	var buf bytes.Buffer
	if err := Save(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Postings are rebuilt on load: lookups must work.
	top := g.LookupTopK(base, 1)
	if len(top) != 1 || top[0].TreeID != "base" || top[0].Distance != 0 {
		t.Fatalf("lookup on loaded index = %+v", top)
	}
}

func TestCorruptionDetected(t *testing.T) {
	f := sampleForest(t)
	var buf bytes.Buffer
	if err := Save(&buf, f); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one byte in the middle of the payload.
	corrupt := make([]byte, len(data))
	copy(corrupt, data)
	corrupt[len(corrupt)/2] ^= 0xff
	if _, err := Load(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("payload corruption not detected")
	}
	// Flip a checksum byte.
	copy(corrupt, data)
	corrupt[len(corrupt)-1] ^= 0xff
	if _, err := Load(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("checksum corruption not detected")
	}
}

func TestTruncationDetected(t *testing.T) {
	f := sampleForest(t)
	var buf bytes.Buffer
	if err := Save(&buf, f); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 1, 4, 5, 7, len(data) / 2, len(data) - 1} {
		if _, err := Load(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestBadHeaders(t *testing.T) {
	bad := [][]byte{
		[]byte("NOPE\x01"),
		append([]byte("PQGI"), 99),         // bad version
		append([]byte("PQGI\x01"), 0, 3),   // p = 0
		append([]byte("PQGI\x01"), 200, 3), // p > maxParam (varint 200 is 2 bytes... use 65)
	}
	for i, b := range bad {
		if _, err := Load(bytes.NewReader(b)); err == nil {
			t.Errorf("bad header %d accepted", i)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	f := sampleForest(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "index.pqg")
	if err := SaveFile(path, f); err != nil {
		t.Fatal(err)
	}
	g, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !forestsEqual(f, g) {
		t.Fatal("file round trip changed the index")
	}
	// Atomic replace: no temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d files left in dir, want 1", len(entries))
	}
	// Overwrite works.
	if err := SaveFile(path, forest.New(p33)); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Len() != 0 {
		t.Fatal("overwrite did not replace content")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.pqg")); err == nil {
		t.Fatal("missing file did not error")
	}
}

func TestSizeMatchesSave(t *testing.T) {
	f := sampleForest(t)
	n, err := Size(f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, f); err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Size = %d, Save wrote %d", n, buf.Len())
	}
}

func TestIndexSmallerThanDocument(t *testing.T) {
	// The headline of Figure 14 (left): the index is significantly smaller
	// than the tree for 3,3-grams on realistic documents.
	tr := gen.DBLP(11, 20000)
	f := forest.New(p33)
	f.Add("dblp", tr)
	idxBytes, err := Size(f)
	if err != nil {
		t.Fatal(err)
	}
	docBytes := int64(len(tr.Format()))
	if idxBytes >= docBytes {
		t.Fatalf("index (%d bytes) not smaller than document (%d bytes)", idxBytes, docBytes)
	}
}

// TestReplaceFileInItsDirectory: an atomic replace creates its temp file
// in the target's own directory (a temp file elsewhere could not be
// renamed across devices) and fsyncs that directory. A store in the root
// directory is the edge case: "/idx" lives in "/", not in "".
func TestReplaceFileInItsDirectory(t *testing.T) {
	for _, tc := range []struct{ path, dir string }{
		{"/idx", "/"},
		{"a/b/c.pqg", "a/b"},
		{"c.pqg", "."},
	} {
		mem := fsio.NewMemFS()
		renamed, err := replaceFile(mem, tc.path, func(w io.Writer) error {
			_, err := w.Write([]byte("x"))
			return err
		})
		if err != nil || !renamed {
			t.Fatalf("%s: renamed=%v err=%v", tc.path, renamed, err)
		}
		var dirs []string
		for _, op := range mem.Trace() {
			switch op.Kind {
			case fsio.OpCreate:
				dirs = append(dirs, "temp in "+filepath.Dir(op.Path))
			case fsio.OpDirSync:
				dirs = append(dirs, "sync "+op.Path)
			}
		}
		if want := []string{"temp in " + tc.dir, "sync " + tc.dir}; fmt.Sprint(dirs) != fmt.Sprint(want) {
			t.Errorf("%s: %v, want %v", tc.path, dirs, want)
		}
	}

	mem := fsio.NewMemFS()
	s, err := CreateSegmentedFS(mem, "/idx", p33)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Add("a", tree.MustParse("r(x)")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := mem.Paths(); fmt.Sprint(got) != "[/idx.000001.seg /idx.manifest /idx.wal]" {
		t.Fatalf("store at the root left %v", got)
	}
}
