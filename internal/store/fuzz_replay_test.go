package store

import (
	"bytes"
	"math/rand"
	"testing"

	"pqgram/internal/fsio"
	"pqgram/internal/gen"
	"pqgram/internal/tree"
)

// fuzzReplayFixture builds one real store on a MemFS — two documents
// flushed into a segment, then an update and a removal that each hit an
// evicted document plus one fresh add, all left in the journal — and
// returns every file of it. The journal's header names exactly that
// manifest (via its crc32), so corpus entries derived from it exercise
// the replay path proper, including its promote and tombstone arms, not
// just the header checks.
func fuzzReplayFixture(f *testing.F) (files map[string][]byte, wal []byte) {
	f.Helper()
	fs := fsio.NewMemFS()
	s, err := CreateSegmentedFS(fs, "idx.pqg", p33)
	if err != nil {
		f.Fatal(err)
	}
	doc := gen.XMark(11, 80)
	if err := s.Add("a", doc.Clone()); err != nil {
		f.Fatal(err)
	}
	if err := s.Add("b", tree.MustParse("x(y z)")); err != nil {
		f.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	_, log, err := gen.RandomScript(rng, doc, 5, gen.DefaultMix)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Update("a", doc, log); err != nil {
		f.Fatal(err)
	}
	if err := s.Remove("b"); err != nil {
		f.Fatal(err)
	}
	if err := s.Add("c", tree.MustParse("m(n o)")); err != nil {
		f.Fatal(err)
	}
	if st := s.Stats(); st.Segments != 1 || st.PendingTombstones != 2 {
		f.Fatalf("fixture shape: %+v", st)
	}
	s.Close()
	files = make(map[string][]byte)
	for _, name := range fs.Paths() {
		data, err := fsio.ReadFile(fs, name)
		if err != nil {
			f.Fatal(err)
		}
		files[name] = data
	}
	wal = files[walPath("idx.pqg")]
	delete(files, walPath("idx.pqg"))
	if len(files) != 2 || len(wal) <= journalHeaderLen {
		f.Fatalf("fixture files: %d besides a %d-byte journal", len(files), len(wal))
	}
	return files, wal
}

// FuzzJournalReplay feeds arbitrary bytes as the journal of an otherwise
// valid store. Invariants, regardless of input:
//
//   - scanRecords never panics and never claims more valid bytes than it
//     was given; parsing a truncation of the input yields a prefix of the
//     full parse (recovery is monotone in how much of the journal survived).
//   - OpenSegmentedFS either fails with an error or returns a store whose
//     forest passes SelfCheck — never a panic, never a corrupt index.
//   - Both outcomes leave zero open file handles behind.
func FuzzJournalReplay(f *testing.F) {
	files, wal := fuzzReplayFixture(f)

	f.Add(wal)                                  // the intact journal
	f.Add(wal[:len(wal)-3])                     // torn final record
	f.Add(wal[:journalHeaderLen])               // header only
	f.Add([]byte{})                             // journal never created
	f.Add([]byte("PQGJ"))                       // torn header
	f.Add([]byte("PQGJ\x01garbage-v1-journal")) // pre-versioning journal
	f.Add(files[manifestPath("idx.pqg")][:9])   // manifest magic where a journal should be
	stale := append([]byte(nil), wal...)
	stale[5] ^= 0xff // wrong manifest crc in the header
	f.Add(stale)
	badcrc := append([]byte(nil), wal...)
	badcrc[len(badcrc)-1] ^= 0xff // last record structurally fine, checksum bad
	f.Add(badcrc)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, _ := scanRecords(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("scanRecords claims %d valid bytes of %d", valid, len(data))
		}
		half, halfValid, _ := scanRecords(data[:len(data)/2])
		if halfValid > valid || len(half) > len(recs) {
			t.Fatalf("truncated scan found more than the full scan: %d/%d bytes, %d/%d records",
				halfValid, valid, len(half), len(recs))
		}
		for i, r := range half {
			if !bytes.Equal(r, recs[i]) {
				t.Fatalf("truncated scan record %d differs from full scan", i)
			}
		}

		mfs := fsio.NewMemFS()
		for name, content := range files {
			if err := fsio.WriteFile(mfs, name, content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := fsio.WriteFile(mfs, walPath("idx.pqg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSegmentedFS(mfs, "idx.pqg")
		if err == nil {
			if err := s.Forest().SelfCheck(); err != nil {
				t.Fatalf("recovered forest fails self check: %v", err)
			}
			r := s.Recovery()
			if r.Records < 0 || r.Bytes < 0 || r.TornBytes < 0 || r.DiscardedBytes < 0 {
				t.Fatalf("negative recovery stats: %+v", r)
			}
			s.Close()
		}
		if n := mfs.OpenHandles(); n != 0 {
			t.Fatalf("%d file handles leaked (open err: %v)", n, err)
		}
	})
}
