package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"pqgram/internal/fsio"
	"pqgram/internal/profile"
)

// FuzzLoad feeds arbitrary bytes to the index loader: it must never panic
// and must either reject the input or return a structurally sound forest.
func FuzzLoad(f *testing.F) {
	// Seed with a real file and a few mutations.
	fo := sampleFuzzForest()
	var buf bytes.Buffer
	if err := Save(&buf, fo); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("PQGI"))
	f.Add(valid[:len(valid)/2])
	truncated := append([]byte(nil), valid...)
	truncated[7] ^= 0x40
	f.Add(truncated)

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted: must be internally consistent.
		if err := g.SelfCheck(); err != nil {
			t.Fatalf("loaded forest fails self check: %v", err)
		}
	})
}

// FuzzOpenSegment feeds arbitrary bytes to the segment reader as a
// segment file: openSegment must reject them, or accept them and then
// answer every bag and posting-block read with data or an error — never
// a panic, and never an allocation the file's size does not justify.
// With reseal set the footer checksum is recomputed first, so mutations
// reach the structural checks behind it instead of all failing the crc.
func FuzzOpenSegment(f *testing.F) {
	fs := fsio.NewMemFS()
	if _, _, err := writeSegment(fs, "a.seg", p33, 1, segTestDocs(3), []string{"dead"}); err != nil {
		f.Fatal(err)
	}
	if _, _, err := writeSegment(fs, "b.seg", p33, 1, nil, []string{"x", "y"}); err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{"a.seg", "b.seg"} {
		valid := readFileBytes(f, fs, name)
		f.Add(valid, false)
		f.Add(valid, true)
		f.Add(valid[:len(valid)/2], true)
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped, true)
	}
	f.Add([]byte{}, false)

	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal && len(data) >= segFooterLen {
			data = append([]byte(nil), data...)
			binary.BigEndian.PutUint32(data[len(data)-8:], crc32.ChecksumIEEE(data[:len(data)-8]))
		}
		mem := fsio.NewMemFS()
		writeFileBytes(t, mem, "f.seg", data)
		sg, err := openSegment(mem, "f.seg", p33, 1)
		if err != nil {
			return
		}
		defer sg.close()
		for ref, d := range sg.docs {
			if bag, err := sg.bag(ref); err == nil && bag.Distinct() != d.distinct {
				t.Fatalf("doc %q: bag of %d tuples, doc table says %d", d.id, bag.Distinct(), d.distinct)
			}
		}
		for i := range sg.fences {
			sg.block(i)
		}
		sg.MayContain(bloomHash(0))
	})
}

// FuzzParseManifest feeds arbitrary bytes to the manifest reader: it must
// reject them, or accept a manifest that writeManifestFile writes and
// loadManifestFile reads back unchanged, identified by the checksum of the
// bytes it came from.
func FuzzParseManifest(f *testing.F) {
	fs := fsio.NewMemFS()
	for i, m := range []*manifest{
		{pr: p33, nextSeq: 1},
		{pr: p33, nextSeq: 42, segs: []manifestSeg{{seq: 3, crc: 0xdeadbeef}, {seq: 41, crc: 1}}, obsolete: []uint64{1, 2}},
	} {
		name := string(rune('a' + i))
		if _, _, err := writeManifestFile(fs, name, m); err != nil {
			f.Fatal(err)
		}
		valid := readFileBytes(f, fs, name)
		f.Add(valid)
		f.Add(valid[:len(valid)-1])
	}
	f.Add([]byte("PQGM"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, crc, err := parseManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if want := crc32.ChecksumIEEE(data[:len(data)-4]); crc != want {
			t.Fatalf("manifest identified as %08x, its bytes sum to %08x", crc, want)
		}
		mem := fsio.NewMemFS()
		wcrc, _, err := writeManifestFile(mem, "m", m)
		if err != nil {
			t.Fatal(err)
		}
		got, gotCRC, err := loadManifestFile(mem, "m")
		if err != nil || gotCRC != wcrc || !reflect.DeepEqual(got, m) {
			t.Fatalf("accepted manifest %+v does not round-trip: %+v, err %v", m, got, err)
		}
	})
}

func sampleFuzzForest() *forestAlias {
	f := newForest()
	f.AddIndex("a", profile.Freeze(indexOf("x", "y", "x")))
	f.AddIndex("b", profile.Freeze(indexOf("y", "z")))
	return f
}
