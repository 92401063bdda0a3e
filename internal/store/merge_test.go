package store

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/gen"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// liveTables snapshots the docOf tables of segs, as a rewrite does.
func liveTables(s *Segmented, segs []*segment) [][]uint32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([][]uint32, len(segs))
	for j, sg := range segs {
		out[j] = slices.Clone(sg.docOf)
	}
	return out
}

// resolve applies the recovery rule of OpenSegmented to a segment list —
// a newer copy shadows an older one, a tombstone deletes older copies —
// and returns every surviving document's bag bytes by id.
func resolve(t *testing.T, segs []*segment) map[string][]byte {
	t.Helper()
	live := make(map[string][]byte)
	for _, sg := range segs {
		for _, d := range sg.docs {
			raw := make([]byte, d.bagLen)
			if err := sg.readAt(raw, sg.bagsOff+d.bagOff); err != nil {
				t.Fatal(err)
			}
			live[d.id] = raw
		}
		for _, id := range sg.tombs {
			delete(live, id)
		}
	}
	return live
}

// FuzzSegmentMerge drives a store through random puts (a re-put leaves a
// dead copy behind), removals (tombstones) and re-adds, flushing without
// the tier policy into k segments; then merges every suffix of them. The
// merge must write exactly the bytes writeSegment writes for the suffix's
// live documents — their bags read back from the inputs — and the
// tombstones that still delete something older (all of the suffix's whose
// id the output does not store, none when the suffix starts at the oldest
// segment); the output must reopen; and the segment list with the suffix
// replaced by it must recover the same documents as before.
func FuzzSegmentMerge(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 192, 0, 128, 65, 192, 1, 2, 192, 129, 192, 0, 192})
	f.Add(int64(7), []byte{5, 6, 7, 192, 133, 192, 5, 192, 134, 69, 192})
	f.Add(int64(3), []byte{0, 192, 128, 192, 0, 192, 1, 192, 129, 192})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 200 {
			script = script[:200]
		}
		mem := fsio.NewMemFS()
		s, err := CreateSegmentedFS(mem, "idx.pqg", p33)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rng := rand.New(rand.NewSource(seed))
		flush := func() { // the flush alone, without the tier policy
			if err := s.flush(); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range script {
			id := fmt.Sprintf("d%02d", b%16)
			switch b >> 6 {
			case 0, 1: // put: a new document, or a re-put over a live one
				if _, err := s.Put(id, gen.RandomTree(rng, 2+rng.Intn(12))); err != nil {
					t.Fatal(err)
				}
			case 2:
				if s.forest.Has(id) {
					if err := s.Remove(id); err != nil {
						t.Fatal(err)
					}
				}
			default:
				flush()
			}
		}
		flush()
		s.mu.RLock()
		segs := slices.Clone(s.segs)
		s.mu.RUnlock()
		before := resolve(t, segs)
		out := fsio.NewMemFS()
		for from := range segs {
			ins := segs[from:]
			plan, err := planSegment(nil, nil, ins, liveTables(s, ins), from == 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := plan.write(out, "merged.seg", p33, 99); err != nil {
				t.Fatal(err)
			}

			var docs []segDoc
			stored := make(map[string]bool)
			for j, sg := range ins {
				for ref, d := range liveTables(s, ins)[j] {
					if d == forest.NoDoc {
						continue
					}
					bag, err := sg.bag(ref)
					if err != nil {
						t.Fatal(err)
					}
					docs = append(docs, segDoc{id: sg.docs[ref].id, bag: bag})
					stored[sg.docs[ref].id] = true
				}
			}
			slices.SortFunc(docs, func(a, b segDoc) int { return strings.Compare(a.id, b.id) })
			var tombs []string
			if from > 0 {
				for _, sg := range ins {
					for _, id := range sg.tombs {
						if !stored[id] && !slices.Contains(tombs, id) {
							tombs = append(tombs, id)
						}
					}
				}
			}
			slices.Sort(tombs)
			if _, _, err := writeSegment(out, "want.seg", p33, 99, docs, tombs); err != nil {
				t.Fatal(err)
			}
			if got, want := readFileBytes(t, out, "merged.seg"), readFileBytes(t, out, "want.seg"); !bytes.Equal(got, want) {
				t.Fatalf("merge of segments %d..%d: %d bytes differ from writeSegment's %d over %d live docs and tombstones %v",
					from, len(segs)-1, len(got), len(want), len(docs), tombs)
			}
			merged, err := openSegment(out, "merged.seg", p33, 99)
			if err != nil {
				t.Fatalf("merge of segments %d..%d does not reopen: %v", from, len(segs)-1, err)
			}
			after := resolve(t, append(slices.Clone(segs[:from]), merged))
			merged.close()
			if !reflect.DeepEqual(after, before) {
				t.Fatalf("merge of segments %d..%d recovers %d documents, the inputs %d", from, len(segs)-1, len(after), len(before))
			}
		}
	})
}

// TestSegmentCountBounded: a store flushing every 8 documents, a quarter
// of its writes replacing a flushed document, keeps after every flush no
// run of mergeFanIn segments in one size tier and at most 3·log₄(f)+1
// segments after f flushes, instead of f; a merged segment holds no dead
// copy; and every lookup, before and after a reopen, equals a store's
// that never flushed.
func TestSegmentCountBounded(t *testing.T) {
	flushes := 48
	if testing.Short() {
		flushes = 20
	}
	const every = 8
	mem := fsio.NewMemFS()
	seg, err := CreateSegmentedFS(mem, "seg.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	seg.SetFlushThreshold(every)
	ram, err := CreateSegmentedFS(fsio.NewMemFS(), "ram.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	defer ram.Close()
	rng := rand.New(rand.NewSource(51))
	var ids []string
	docs := make(map[string]*tree.Tree)
	for done := 0; done < flushes; {
		id := fmt.Sprintf("doc-%04d", len(ids))
		if len(ids) > every && rng.Intn(4) == 0 {
			id = ids[rng.Intn(len(ids))]
		} else {
			ids = append(ids, id)
		}
		docs[id] = gen.XMark(rng.Int63(), 10+rng.Intn(30))
		before := seg.Stats().NextSeq
		for _, s := range []*Segmented{seg, ram} {
			if _, err := s.Put(id, docs[id].Clone()); err != nil {
				t.Fatal(err)
			}
		}
		if seg.Stats().NextSeq == before {
			continue
		}
		done++
		seg.mu.RLock()
		tiers := make([]int, len(seg.segs))
		for i, sg := range seg.segs {
			tiers[i] = sizeTier(len(sg.docs))
		}
		newest := seg.segs[len(seg.segs)-1]
		merged := newest.seq > before // the flush wrote seq before, a merge a later one
		dead := slices.Index(newest.docOf, forest.NoDoc)
		seg.mu.RUnlock()
		for i := mergeFanIn - 1; i < len(tiers); i++ {
			if run := tiers[i-mergeFanIn+1 : i+1]; slices.Min(run) == slices.Max(run) {
				t.Fatalf("flush %d: %d segments in tier %d: tiers %v", done, mergeFanIn, run[0], tiers)
			}
		}
		if bound := 3*math.Log(float64(done))/math.Log(4) + 1; float64(len(tiers)) > bound {
			t.Fatalf("flush %d: %d segments, bound %.1f: tiers %v", done, len(tiers), bound, tiers)
		}
		if merged && dead >= 0 {
			t.Fatalf("flush %d: merged segment %d keeps the dead copy of %q", done, newest.seq, newest.docs[dead].id)
		}
	}
	if st := seg.Stats(); st.Segments < 2 || st.Segments >= flushes/4 {
		t.Fatalf("after %d flushes: %+v", flushes, st)
	}
	queries := make([]profile.Index, 12)
	for i := range queries {
		q, _, err := gen.Perturb(rng, docs[ids[rng.Intn(len(ids))]], 1+i%4, gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = profile.BuildIndex(q, p33)
	}
	check := func(tag string, f *forest.Index) {
		t.Helper()
		if err := f.SelfCheck(); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		for qi, q := range queries {
			for _, tau := range []float64{0.1, 0.4, 0.8, 1} {
				if got, want := f.LookupIndex(q, tau), ram.Forest().LookupIndex(q, tau); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: q%d tau %.1f diverges:\n got %v\nwant %v", tag, qi, tau, got, want)
				}
			}
			if got, want := f.LookupIndexTopK(q, 5), ram.Forest().LookupIndexTopK(q, 5); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: q%d top-5 diverges:\n got %v\nwant %v", tag, qi, got, want)
			}
		}
	}
	check("live", seg.Forest())
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err := OpenSegmentedFS(mem, "seg.pqg")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	check("reopened", rs.Forest())
}

// TestTierRunFoldsLegacyLayout: a store holding more than mergeFanIn
// same-tier segments — written before the merge policy — folds the whole
// run on its next flush, not just the newest mergeFanIn.
func TestTierRunFoldsLegacyLayout(t *testing.T) {
	s, err := CreateSegmentedFS(fsio.NewMemFS(), "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 6; i++ {
		if err := s.Add(fmt.Sprintf("doc-%d", i), gen.XMark(int64(i), 20)); err != nil {
			t.Fatal(err)
		}
		if err := s.flush(); err != nil { // the flush alone, no tier merge
			t.Fatal(err)
		}
	}
	if got := s.tierRun(); got != 0 {
		t.Fatalf("tierRun over 6 one-document segments = %d, want 0", got)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Segments != 1 || st.EvictedDocs != 6 {
		t.Fatalf("after the folding flush: %+v", st)
	}
	for docs, want := range map[int]int{0: 0, 1: 0, 3: 0, 4: 1, 15: 1, 16: 2, 127: 3, 128: 3, 512: 4, 2048: 5} {
		if got := sizeTier(docs); got != want {
			t.Errorf("sizeTier(%d) = %d, want %d", docs, got, want)
		}
	}
}

// TestInvertBagsOrder holds the memtable's radix inversion to a plain
// sort of every posting by tuple and ref, and each bagLen to the bag's
// encoded length: for fingerprint-like tuples, for tuples bunched in
// their top bits (every posting in one radix bucket, so the insertion
// sort does all the work), for tuples below one byte, and for posting
// counts that take zero to three radix passes.
func TestInvertBagsOrder(t *testing.T) {
	type posting struct {
		t   uint64
		ref int32
		cnt uint32
	}
	uniform := func(rng *rand.Rand) uint64 { return rng.Uint64() >> 3 }
	clustered := func(rng *rand.Rand) uint64 { return 1<<60 + uint64(rng.Intn(4096)) }
	small := func(rng *rand.Rand) uint64 { return uint64(rng.Intn(200)) }
	for _, c := range []struct {
		name         string
		draw         func(*rand.Rand) uint64
		docs, perDoc int
	}{
		{"uniform", uniform, 1, 2},      // n < 4: no pass
		{"uniform", uniform, 24, 40},    // one pass
		{"uniform", uniform, 24, 700},   // two
		{"uniform", uniform, 24, 11000}, // three
		{"clustered", clustered, 1, 3},
		{"clustered", clustered, 24, 40},
		{"clustered", clustered, 24, 400},
		{"small", small, 24, 3},
		{"small", small, 24, 150},
	} {
		rng := rand.New(rand.NewSource(int64(c.docs*c.perDoc + len(c.name))))
		var docs []segOut
		var want []posting
		for ref := range c.docs {
			idx := profile.Index{}
			for range c.perDoc {
				idx[profile.LabelTuple(c.draw(rng))] += 1 + rng.Intn(3)
			}
			bag := profile.Freeze(idx)
			docs = append(docs, segOut{id: fmt.Sprint(ref), size: bag.Size(), distinct: bag.Distinct(), bag: bag, in: -1})
			for i := range bag.Distinct() {
				lt, n := bag.At(i)
				want = append(want, posting{uint64(lt), int32(ref), uint32(n)})
			}
		}
		slices.SortFunc(want, func(a, b posting) int {
			if d := cmp.Compare(a.t, b.t); d != 0 {
				return d
			}
			return cmp.Compare(a.ref, b.ref)
		})
		r := invertBags(docs)
		got := make([]posting, len(r.tuples))
		for i := range got {
			got[i] = posting{r.tuples[i], r.posts[i].Ref, r.posts[i].Cnt}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s, %d docs of %d tuples: inverted run differs from the sorted postings", c.name, c.docs, c.perDoc)
		}
		for _, d := range docs {
			var enc bytes.Buffer
			if writeSortedBag(&enc, d.bag); d.bagLen != int64(enc.Len()) {
				t.Fatalf("%s, %d docs of %d tuples: doc %s bagLen %d, encoded %d bytes", c.name, c.docs, c.perDoc, d.id, d.bagLen, enc.Len())
			}
		}
	}
}

// segWriteCorpus is BenchmarkSegmentWrite's documents: XMark trees of 64
// to 512 nodes, the benchmark corpus's size range, frozen.
func segWriteCorpus(n int, seed int64) []segDoc {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]segDoc, n)
	for i := range docs {
		t := gen.XMark(rng.Int63(), 64+rng.Intn(449))
		docs[i] = segDoc{id: fmt.Sprintf("doc-%05d", i), bag: profile.Freeze(profile.BuildIndex(t, profile.Default))}
	}
	return docs
}

// discardFS is a filesystem whose files swallow their writes: what the
// segment writer costs apart from the disk (or from MemFS's trace).
type discardFS struct{ fsio.FS }

type discardFile struct{ fsio.File }

func (discardFS) CreateTemp(dir, pattern string) (fsio.File, error) { return discardFile{}, nil }
func (discardFS) Rename(oldpath, newpath string) error              { return nil }
func (discardFS) Remove(name string) error                          { return nil }
func (discardFS) OpenDir(name string) (fsio.Dir, error)             { return discardFile{}, nil }
func (discardFile) Write(p []byte) (int, error)                     { return len(p), nil }
func (discardFile) Sync() error                                     { return nil }
func (discardFile) Close() error                                    { return nil }
func (discardFile) Name() string                                    { return "discard" }

// BenchmarkSegmentWrite times the segment writer per document written: a
// flush of 128 memtable bags, a flush of 2048 (a whole corpus, as
// `pqindex build` and a compaction of a large memtable write it), and a
// merge of four 512-document segments into one. All write to discardFS,
// so the figure is the writer's CPU cost — encoding, merging,
// checksumming — not the disk's.
func BenchmarkSegmentWrite(b *testing.B) {
	for _, n := range []int{128, 2048} {
		b.Run(fmt.Sprintf("flush=%d", n), func(b *testing.B) {
			docs := segWriteCorpus(n, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := writeSegment(discardFS{}, "f.seg", profile.Default, 1, docs, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(docs)), "ns/doc")
		})
	}
	b.Run("merge=4x512", func(b *testing.B) {
		in := fsio.NewMemFS()
		corpus := segWriteCorpus(4*512, 2)
		ins := make([]*segment, 4)
		live := make([][]uint32, 4)
		for j := range ins {
			var part []segDoc // ids interleave across the inputs, as arrival order does
			for i := j; i < len(corpus); i += len(ins) {
				part = append(part, corpus[i])
			}
			name := fmt.Sprintf("in.%d.seg", j)
			if _, _, err := writeSegment(in, name, profile.Default, uint64(j+1), part, nil); err != nil {
				b.Fatal(err)
			}
			sg, err := openSegment(in, name, profile.Default, uint64(j+1))
			if err != nil {
				b.Fatal(err)
			}
			defer sg.close()
			ins[j], live[j] = sg, make([]uint32, len(part))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan, err := planSegment(nil, nil, ins, live, true)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := plan.write(discardFS{}, "m.seg", profile.Default, 5); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(corpus)), "ns/doc")
	})
}
