package store

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/gen"
	"pqgram/internal/profile"
)

// segTestDocs builds n deterministic documents with their pq-gram bags,
// ids ascending, ready for writeSegment.
func segTestDocs(n int) []segDoc {
	docs := make([]segDoc, n)
	for i := range docs {
		docs[i] = segDoc{
			id:  fmt.Sprintf("doc-%03d", i),
			bag: profile.BuildIndex(gen.XMark(int64(1000+i), 25+i%30), p33),
		}
	}
	return docs
}

func readFileBytes(t *testing.T, fs fsio.FS, path string) []byte {
	t.Helper()
	fh, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	data, err := io.ReadAll(fh)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFileBytes(t *testing.T, fs fsio.FS, path string, data []byte) {
	t.Helper()
	fh, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentRoundTrip writes a segment and reads every access path back:
// the doc table, per-doc bags, tombstones, batched postings probes and the
// bloom filter's no-false-negative contract over the stored tuples.
func TestSegmentRoundTrip(t *testing.T) {
	fs := fsio.NewMemFS()
	docs := segTestDocs(9)
	tombs := []string{"gone-a", "gone-b"}
	crc, renamed, err := writeSegment(fs, "x.000007.seg", p33, 7, docs, tombs)
	if err != nil {
		t.Fatal(err)
	}
	if !renamed {
		t.Fatal("writeSegment did not rename into place")
	}
	sg, err := openSegment(fs, "x.000007.seg", p33, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer sg.close()
	if sg.crc != crc {
		t.Fatalf("open crc %08x, write reported %08x", sg.crc, crc)
	}
	if len(sg.docs) != len(docs) {
		t.Fatalf("%d docs, want %d", len(sg.docs), len(docs))
	}
	if len(sg.tombs) != 2 || sg.tombs[0] != "gone-a" || sg.tombs[1] != "gone-b" {
		t.Fatalf("tombstones %v", sg.tombs)
	}

	// Bags round-trip exactly, and the doc table carries the right
	// size/distinct summary for forest.AddEvicted.
	union := make(map[uint64][]segPosting) // tuple -> expected postings
	for ref, d := range docs {
		got, err := sg.bag(ref)
		if err != nil {
			t.Fatalf("bag(%d): %v", ref, err)
		}
		if !got.Equal(d.bag) {
			t.Fatalf("bag(%d) differs after round trip", ref)
		}
		if sg.docs[ref].id != d.id || sg.docs[ref].size != d.bag.Size() || sg.docs[ref].distinct != len(d.bag) {
			t.Fatalf("doc meta %d: %+v", ref, sg.docs[ref])
		}
		for lt, c := range d.bag {
			union[uint64(lt)] = append(union[uint64(lt)], segPosting{Ref: int32(ref), Cnt: uint32(c)})
		}
	}

	// Bloom: every stored tuple must pass.
	for lt := range union {
		if !sg.MayContain(bloomHash(lt)) {
			t.Fatalf("bloom false negative for stored tuple %016x", lt)
		}
	}

	// Probe every stored tuple and compare the posting lists
	// (ref-ascending within a tuple, by construction).
	for lt, want := range union {
		list := sg.Postings(profile.LabelTuple(lt))
		if len(list) != len(want) {
			t.Fatalf("tuple %016x: %d postings, want %d", lt, len(list), len(want))
		}
		for i := range list {
			if list[i] != want[i] {
				t.Fatalf("tuple %016x entry %d: %+v, want %+v", lt, i, list[i], want[i])
			}
		}
	}

	// Walking every block visits exactly the union, in ascending tuple order.
	var last uint64
	enumerated := 0
	for bi := range sg.fences {
		blk, err := sg.block(bi)
		if err != nil {
			t.Fatal(err)
		}
		for i, lt := range blk.tuples {
			if enumerated > 0 && lt <= last {
				t.Fatalf("block walk out of order: %016x after %016x", lt, last)
			}
			last = lt
			enumerated++
			if n := len(blk.list(i)); n != len(union[lt]) {
				t.Fatalf("block walk tuple %016x: %d postings, want %d", lt, n, len(union[lt]))
			}
		}
	}
	if enumerated != len(union) {
		t.Fatalf("block walk visited %d tuples, want %d", enumerated, len(union))
	}

	// Probing tuples the segment does not hold must hit nothing; no copy
	// is live until the store says so.
	for _, lt := range []uint64{0, ^uint64(0)} {
		if _, ok := union[lt]; !ok && sg.Postings(profile.LabelTuple(lt)) != nil {
			t.Fatalf("probe surfaced absent tuple %016x", lt)
		}
	}
	for ref, doc := range sg.Docs() {
		if doc != forest.NoDoc {
			t.Fatalf("ref %d live (doc %d) in a segment no store published", ref, doc)
		}
	}
}

// TestSegmentEveryByteFlipRejected: the footer checksum covers the entire
// file ahead of it and the trailer is verified literally, so flipping any
// single byte of a segment must make openSegment fail. This is what lets
// tier reads treat an open-verified segment as incorruptible.
func TestSegmentEveryByteFlipRejected(t *testing.T) {
	fs := fsio.NewMemFS()
	docs := segTestDocs(4)
	if _, _, err := writeSegment(fs, "x.000001.seg", p33, 1, docs, []string{"dead"}); err != nil {
		t.Fatal(err)
	}
	orig := readFileBytes(t, fs, "x.000001.seg")
	for off := range orig {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0x40
		writeFileBytes(t, fs, "corrupt.seg", mut)
		sg, err := openSegment(fs, "corrupt.seg", p33, 1)
		if err == nil {
			sg.close()
			t.Fatalf("byte %d/%d flipped: openSegment accepted a corrupt segment", off, len(orig))
		}
	}
}

// TestSegmentTruncationRejected: every proper prefix of a segment file is
// rejected (footer missing, sections out of bounds, or crc mismatch).
func TestSegmentTruncationRejected(t *testing.T) {
	fs := fsio.NewMemFS()
	if _, _, err := writeSegment(fs, "x.000001.seg", p33, 1, segTestDocs(3), nil); err != nil {
		t.Fatal(err)
	}
	orig := readFileBytes(t, fs, "x.000001.seg")
	for _, cut := range []int{0, 1, segFooterLen - 1, len(orig) / 3, len(orig) / 2, len(orig) - 1} {
		writeFileBytes(t, fs, "cut.seg", orig[:cut])
		if sg, err := openSegment(fs, "cut.seg", p33, 1); err == nil {
			sg.close()
			t.Fatalf("truncated to %d/%d bytes: accepted", cut, len(orig))
		}
	}
}

// TestSegmentIdentityChecks: a segment opened under the wrong sequence
// number or the wrong pq-gram parameters is rejected even though its bytes
// are intact — the manifest's naming must match the file's self-description.
func TestSegmentIdentityChecks(t *testing.T) {
	fs := fsio.NewMemFS()
	if _, _, err := writeSegment(fs, "x.000005.seg", p33, 5, segTestDocs(2), nil); err != nil {
		t.Fatal(err)
	}
	if sg, err := openSegment(fs, "x.000005.seg", p33, 6); err == nil {
		sg.close()
		t.Fatal("accepted wrong sequence number")
	}
	if sg, err := openSegment(fs, "x.000005.seg", profile.Params{P: 2, Q: 4}, 5); err == nil {
		sg.close()
		t.Fatal("accepted wrong parameters")
	}
}

// TestManifestRoundTrip: encode → write → load preserves params, the next
// sequence number, the live segment list and the obsolete list; the load
// reports the same content crc the writer computed (the value journal
// headers bind to).
func TestManifestRoundTrip(t *testing.T) {
	fs := fsio.NewMemFS()
	man := &manifest{
		pr:       p33,
		nextSeq:  42,
		segs:     []manifestSeg{{seq: 3, crc: 0xdeadbeef}, {seq: 41, crc: 1}},
		obsolete: []uint64{1, 2},
	}
	crc, renamed, err := writeManifestFile(fs, "idx.manifest", man)
	if err != nil {
		t.Fatal(err)
	}
	if !renamed {
		t.Fatal("manifest not renamed into place")
	}
	got, gotCRC, err := loadManifestFile(fs, "idx.manifest")
	if err != nil {
		t.Fatal(err)
	}
	if gotCRC != crc {
		t.Fatalf("load crc %08x, write reported %08x", gotCRC, crc)
	}
	if got.pr != man.pr || got.nextSeq != man.nextSeq {
		t.Fatalf("manifest header differs: %+v", got)
	}
	if len(got.segs) != 2 || got.segs[0] != man.segs[0] || got.segs[1] != man.segs[1] {
		t.Fatalf("segment list %+v", got.segs)
	}
	if len(got.obsolete) != 2 || got.obsolete[0] != 1 || got.obsolete[1] != 2 {
		t.Fatalf("obsolete list %+v", got.obsolete)
	}
}

// TestManifestEveryByteFlipRejected: the manifest ends in a crc over all
// preceding bytes, so any single-byte corruption must be detected.
func TestManifestEveryByteFlipRejected(t *testing.T) {
	fs := fsio.NewMemFS()
	man := &manifest{pr: p33, nextSeq: 9, segs: []manifestSeg{{seq: 8, crc: 77}}}
	if _, _, err := writeManifestFile(fs, "idx.manifest", man); err != nil {
		t.Fatal(err)
	}
	orig := readFileBytes(t, fs, "idx.manifest")
	for off := range orig {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0x01
		writeFileBytes(t, fs, "bad.manifest", mut)
		if _, _, err := loadManifestFile(fs, "bad.manifest"); err == nil {
			t.Fatalf("byte %d/%d flipped: loadManifestFile accepted corruption", off, len(orig))
		}
	}
	// Trailing garbage after a valid manifest is corruption too.
	writeFileBytes(t, fs, "bad.manifest", append(append([]byte(nil), orig...), 0x00))
	if _, _, err := loadManifestFile(fs, "bad.manifest"); err == nil {
		t.Fatal("accepted trailing bytes after the manifest crc")
	}
	// And every truncation.
	for cut := 0; cut < len(orig); cut++ {
		writeFileBytes(t, fs, "bad.manifest", orig[:cut])
		if _, _, err := loadManifestFile(fs, "bad.manifest"); err == nil {
			t.Fatalf("truncated to %d/%d bytes: accepted", cut, len(orig))
		}
	}
}

// TestSegmentPathNaming pins the file-naming scheme STORAGE.md documents.
func TestSegmentPathNaming(t *testing.T) {
	if got := segmentPath("idx.pqg", 7); got != "idx.pqg.000007.seg" {
		t.Fatalf("segmentPath = %q", got)
	}
	if got := manifestPath("idx.pqg"); got != "idx.pqg.manifest" {
		t.Fatalf("manifestPath = %q", got)
	}
	if !strings.HasPrefix(segmentPath("a", 1234567), "a.") {
		t.Fatal("segmentPath lost its base prefix")
	}
}
