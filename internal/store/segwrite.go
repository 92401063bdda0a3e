// The segment writer: one streaming k-way merge that every segment write
// goes through — a flush (the memtable's bags), a tier merge (the posting
// blocks of a suffix of the live segments) and a compaction (both).
//
// Every input is a sorted posting source: the memtable's bags, inverted
// by a radix sort into one run ordered by tuple and output ref, and each
// input segment, whose posting blocks stream in file order with the refs
// remapped into the output's doc table and its dead copies dropped. A
// merger over the sources hands the writer one tuple at a time, with the
// posting lists of every source holding it, so the posts section streams
// out block by block. Bag regions stream too: a memtable bag is encoded
// into a reused buffer, and a segment copy's bytes are read positionally
// and copied verbatim — a bag's encoding does not depend on its
// neighbours. Besides the memtable's run (16 bytes per posting, beside
// the bags the memtable holds anyway), the writer holds a window of
// encoded blocks, the fences, the distinct tuples (the bloom filter is
// sized from their count) and a read window per input segment: never an
// input segment's bags or postings, and no postings map.
//
// The output is byte-identical to what a writer given the same live
// documents as bags would produce: the doc table, the tuple order, the
// block boundaries and the bloom filter depend only on the documents and
// tombstones, not on where they came from (FuzzSegmentMerge holds the
// merge path to that).
package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strings"

	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/profile"
)

// segReadWindow is how many posting bytes the writer moves at a time: it
// reads an input segment's posts in windows of this size and writes its
// own once that many have gathered. Posting blocks are a few hundred bytes
// to a few KB, so one read or write serves many of them.
const segReadWindow = 64 << 10

// segDoc is one memtable document handed to the segment writer.
type segDoc struct {
	id  string
	bag profile.Bag
}

// segOut is one doc-table entry of a segment being written and where its
// bag region comes from: a memtable bag (in < 0) or the copy at ref in
// input segment in.
type segOut struct {
	id       string
	size     int
	distinct int
	bagLen   int64
	bag      profile.Bag
	in       int
	ref      int
}

// segPlan is the layout of one segment write: the doc table ascending by
// id, the tombstones ascending and disjoint from it, the input segments
// and, per input, the output ref of each of its doc refs (-1 for a copy
// left out).
type segPlan struct {
	docs  []segOut
	tombs []string
	ins   []*segment
	remap [][]int32
	mem   postRun // the memtable documents' postings, from invertBags
}

// planSegment lays out a segment from mem — memtable documents with their
// bags — and the live copies of ins, those whose docOf entry is not
// forest.NoDoc: one doc table ascending by id, mem and the copies being
// disjoint. Dead copies are left out. A tombstone of tombs or of an input
// survives unless the output stores its id (the stored copy is the newer
// one and shadows older segments by itself) or oldest says no older
// segment remains for it to delete from.
func planSegment(mem []segDoc, tombs []string, ins []*segment, docOf [][]uint32, oldest bool) (*segPlan, error) {
	p := &segPlan{ins: ins, remap: make([][]int32, len(ins))}
	for _, d := range mem {
		p.docs = append(p.docs, segOut{id: d.id, size: d.bag.Size(), distinct: d.bag.Distinct(), bag: d.bag, in: -1})
	}
	for j, sg := range ins {
		p.remap[j] = make([]int32, len(sg.docs))
		for ref, d := range docOf[j] {
			p.remap[j][ref] = -1
			if d != forest.NoDoc {
				m := sg.docs[ref]
				p.docs = append(p.docs, segOut{id: m.id, size: m.size, distinct: m.distinct, bagLen: m.bagLen, in: j, ref: ref})
			}
		}
	}
	slices.SortFunc(p.docs, func(a, b segOut) int { return strings.Compare(a.id, b.id) })
	for i, d := range p.docs {
		if i > 0 && d.id == p.docs[i-1].id {
			return nil, fmt.Errorf("store: %q is live twice among the documents of one segment write", d.id)
		}
		if d.in >= 0 {
			p.remap[d.in][d.ref] = int32(i)
		}
	}
	if len(p.docs) >= 1<<31 {
		return nil, fmt.Errorf("store: segment doc count %d exceeds doc-ref range", len(p.docs))
	}
	if len(mem) > 0 {
		p.mem = invertBags(p.docs)
	}
	if oldest {
		return p, nil
	}
	cand := slices.Clone(tombs)
	for _, sg := range ins {
		cand = append(cand, sg.tombs...)
	}
	slices.Sort(cand)
	for _, id := range slices.Compact(cand) {
		if _, stored := slices.BinarySearchFunc(p.docs, id, func(d segOut, id string) int { return strings.Compare(d.id, id) }); !stored {
			p.tombs = append(p.tombs, id)
		}
	}
	return p, nil
}

// writeSegment writes a segment of memtable documents and tombstones as
// given through replaceFile and returns its content crc32 and whether the
// rename happened. docs must have distinct ids; tombs must be sorted
// ascending and disjoint from the doc ids — a segment that both stores
// and deletes the same id would be ambiguous, and open rejects it.
func writeSegment(fsys fsio.FS, path string, pr profile.Params, seq uint64, docs []segDoc, tombs []string) (crc uint32, renamed bool, err error) {
	p, err := planSegment(docs, nil, nil, nil, true)
	if err != nil {
		return 0, false, err
	}
	p.tombs = tombs
	return p.write(fsys, path, pr, seq)
}

// write writes the planned segment through replaceFile and returns its
// content crc32 and whether the rename happened.
func (p *segPlan) write(fsys fsio.FS, path string, pr profile.Params, seq uint64) (crc uint32, renamed bool, err error) {
	renamed, err = replaceFile(fsys, path, func(w io.Writer) error {
		cw := newCRCWriter(w)
		writeHeader(cw, segMagic, segVersion, pr)
		putUvarint(cw, seq)

		docsOff := cw.n
		putUvarint(cw, uint64(len(p.docs)))
		for _, d := range p.docs {
			writeID(cw, d.id)
			putUvarint(cw, uint64(d.size))
			putUvarint(cw, uint64(d.distinct))
			putUvarint(cw, uint64(d.bagLen))
		}
		putUvarint(cw, uint64(len(p.tombs)))
		for _, id := range p.tombs {
			writeID(cw, id)
		}

		bagsOff := cw.n
		if err := p.writeBags(cw); err != nil {
			return err
		}

		postsOff := cw.n
		fences, tuples, err := p.writePosts(cw)
		if err != nil {
			return err
		}

		fencesOff := cw.n
		putUvarint(cw, uint64(len(fences)))
		prevFirst, prevOff := uint64(0), int64(0)
		for _, fe := range fences {
			putUvarint(cw, fe.first-prevFirst)
			prevFirst = fe.first
			putUvarint(cw, uint64(fe.off-prevOff))
			prevOff = fe.off
			putUvarint(cw, uint64(fe.n))
		}

		bloomOff := cw.n
		bloom := newBloom(len(tuples))
		for _, lt := range tuples {
			bloom.add(lt)
		}
		bloom.marshalInto(cw)

		var foot [5 * 8]byte
		for i, off := range []int64{docsOff, bagsOff, postsOff, fencesOff, bloomOff} {
			binary.BigEndian.PutUint64(foot[i*8:], uint64(off))
		}
		cw.Write(foot[:])
		crc, err = cw.finish(segTrailer[:])
		return err
	})
	return crc, renamed, err
}

// writeBags streams the bag regions in doc-table order: a memtable bag
// encoded into one reused buffer, a segment copy's bytes read from its
// file as they are. Each region goes to cw in one write, so the content
// checksum runs over whole bags rather than over single varints.
func (p *segPlan) writeBags(cw *countingCRCWriter) error {
	var (
		enc bytes.Buffer
		raw []byte
	)
	for _, d := range p.docs {
		if d.in < 0 {
			enc.Reset()
			writeSortedBag(&enc, d.bag)
			cw.Write(enc.Bytes())
			continue
		}
		sg := p.ins[d.in]
		raw = slices.Grow(raw[:0], int(d.bagLen))[:d.bagLen]
		if err := sg.readAt(raw, sg.bagsOff+sg.docs[d.ref].bagOff); err != nil {
			return fmt.Errorf("store: segment %s: reading bag of %q: %w", sg.path, d.id, err)
		}
		cw.Write(raw)
	}
	return nil
}

// writePosts streams the posts section: the k-way merge of every source,
// cut into blocks of segBlockTuples tuples, each self-contained (first
// tuple and first doc ref absolute). It returns the blocks' fences and the
// distinct tuples in order, which size and fill the bloom filter.
func (p *segPlan) writePosts(cw *countingCRCWriter) ([]segFence, []uint64, error) {
	srcs := make([]postSource, 0, 1+len(p.ins))
	if len(p.mem.tuples) > 0 {
		srcs = append(srcs, postSource{tuples: p.mem.tuples, posts: p.mem.posts})
	}
	for j, sg := range p.ins {
		srcs = append(srcs, postSource{seg: sg, remap: p.remap[j]})
	}
	m, err := newMerger(srcs)
	if err != nil {
		return nil, nil, err
	}
	// Encoded blocks gather in buf, which goes out whenever it holds a
	// read window's worth: a segment's posts leave in a few large writes
	// rather than one small one per block. buf[start:] is the open block.
	var (
		fences  []segFence
		tuples  []uint64
		buf     []byte
		start   int
		inBlk   int
		written int64
	)
	endBlock := func() {
		fences = append(fences, segFence{first: tuples[len(tuples)-inBlk], off: written + int64(start), n: int64(len(buf) - start)})
		if len(buf) >= segReadWindow {
			cw.Write(buf)
			written += int64(len(buf))
			buf = buf[:0]
		}
		start, inBlk = len(buf), 0
	}
	for {
		key, list, ok, err := m.next()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		if inBlk == segBlockTuples {
			endBlock()
		}
		prevT := uint64(0)
		if inBlk > 0 {
			prevT = tuples[len(tuples)-1]
		}
		buf = binary.AppendUvarint(buf, key-prevT)
		buf = binary.AppendUvarint(buf, uint64(len(list)))
		prevRef := uint64(0)
		for _, pe := range list {
			buf = binary.AppendUvarint(buf, uint64(pe.Ref)-prevRef)
			prevRef = uint64(pe.Ref)
			buf = binary.AppendUvarint(buf, uint64(pe.Cnt))
		}
		tuples = append(tuples, key)
		inBlk++
	}
	if inBlk > 0 {
		endBlock()
	}
	cw.Write(buf)
	return fences, tuples, nil
}

// mergeRuns merges the ascending runs of list that start at runs into
// dst by ref: the posting lists of one tuple from a few input segments,
// whose refs interleave in the output's doc table. heads is scratch.
func mergeRuns(dst, list []segPosting, runs, heads []int) ([]segPosting, []int) {
	dst = dst[:0]
	heads = append(heads[:0], runs...)
	for {
		best := -1
		for i, h := range heads {
			end := len(list)
			if i+1 < len(runs) {
				end = runs[i+1]
			}
			if h < end && (best < 0 || list[h].Ref < list[heads[best]].Ref) {
				best = i
			}
		}
		if best < 0 {
			return dst, heads
		}
		dst = append(dst, list[heads[best]])
		heads[best]++
	}
}

// invertBags inverts the memtable documents of a doc table into one
// sorted posting run: every (tuple, ref, count) of their bags, ordered by
// tuple and then by ref. Stable counting passes over the tuples' top bits,
// one per byte, sort the run into 2^B buckets, with B the first multiple
// of 8 that is at least the bit length of the posting count n less two,
// so 2^B > n/4. One insertion sort over the whole run then finishes each
// bucket. Tuples are fingerprints, close to uniform, so two postings of
// distinct tuples share a bucket with probability 2^-B, and the insertion
// sort moves fewer than n²/2^(B+1) < 2n entries in expectation, whatever
// n is. That is one to three passes and a sweep, where a k-way merge of
// the bags would play log2(k) matches per posting and a full radix sort
// would take eight passes. Tuples bunched in their top bits, which
// fingerprints are not, would cost the insertion sort up to n²/2 moves
// but sort all the same. The postings are gathered in ref order and every
// step is stable, so equal tuples keep ascending refs. The gathering pass
// also sets each memtable document's bagLen.
func invertBags(docs []segOut) postRun {
	n, hi := 0, uint64(0)
	for _, d := range docs {
		if d.in < 0 && d.distinct > 0 {
			n += d.distinct
			last, _ := d.bag.At(d.distinct - 1)
			hi = max(hi, uint64(last))
		}
	}
	passes := (bits.Len(uint(n)) + 5) / 8
	shift := max(bits.Len64(hi)-8*passes, 0) // pass k sorts by the byte at shift+8k
	r := postRun{make([]uint64, n), make([]segPosting, n)}
	at := 0
	for ref := range docs {
		d := &docs[ref]
		if d.in >= 0 {
			continue
		}
		bagLen, prev := 0, uint64(0)
		tuples, posts := r.tuples[at:at+d.distinct], r.posts[at:at+d.distinct]
		for i := range tuples {
			lt, c := d.bag.At(i)
			t := uint64(lt)
			tuples[i], posts[i] = t, segPosting{Ref: int32(ref), Cnt: uint32(c)}
			bagLen += uvarintLen(t-prev) + uvarintLen(uint64(c))
			prev = t
		}
		d.bagLen = int64(bagLen)
		at += d.distinct
	}
	tmp := postRun{make([]uint64, n), make([]segPosting, n)}
	for k := range passes {
		r.scatter(tmp, shift+8*k)
		r, tmp = tmp, r
	}
	r.insertionSort()
	return r
}

// scatter moves r into dst ordered by the byte of each tuple at shift,
// stably.
func (r postRun) scatter(dst postRun, shift int) {
	var count [257]int
	for _, t := range r.tuples {
		count[(t>>shift)&0xff+1]++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	for i, t := range r.tuples {
		k := (t >> shift) & 0xff
		dst.tuples[count[k]], dst.posts[count[k]] = t, r.posts[i]
		count[k]++
	}
}

// postRun is a run of postings as parallel tuple and posting arrays.
type postRun struct {
	tuples []uint64
	posts  []segPosting
}

// insertionSort sorts the run stably by tuple, in time linear in its
// length plus its inversions.
func (r postRun) insertionSort() {
	for i := 1; i < len(r.tuples); i++ {
		t, pe := r.tuples[i], r.posts[i]
		j := i
		for ; j > 0 && r.tuples[j-1] > t; j-- {
			r.tuples[j], r.posts[j] = r.tuples[j-1], r.posts[j-1]
		}
		r.tuples[j], r.posts[j] = t, pe
	}
}

// postSource is one sorted posting source of a segment write: the
// memtable's inverted bags or an input segment. key is its current tuple
// and list that tuple's postings, in output refs ascending; done marks an
// exhausted source.
type postSource struct {
	key  uint64
	list []segPosting
	done bool

	// The memtable: invertBags' parallel arrays and the next entry.
	tuples []uint64
	posts  []segPosting
	pos    int

	// An input segment: the next block to read, the current block's
	// undecoded rest, and a window of the posts section read ahead.
	seg     *segment
	remap   []int32
	block   int
	rest    []byte
	win     []byte
	winOff  int64
	entries []segPosting
}

// advance moves the source to its next tuple.
func (s *postSource) advance() error {
	if s.seg == nil {
		if s.pos == len(s.tuples) {
			s.done = true
			return nil
		}
		i := s.pos
		s.key = s.tuples[i]
		for s.pos++; s.pos < len(s.tuples) && s.tuples[s.pos] == s.key; s.pos++ {
		}
		s.list = s.posts[i:s.pos]
		return nil
	}
	for {
		if len(s.rest) == 0 {
			if s.block == len(s.seg.fences) {
				s.done = true
				return nil
			}
			if err := s.readBlock(); err != nil {
				return err
			}
			s.key = 0 // the first tuple of a block is absolute
		}
		// The hottest loop of a merge: the varints are decoded inline.
		rest := s.rest
		delta, n := binary.Uvarint(rest)
		if n <= 0 {
			return s.corrupt()
		}
		rest = rest[n:]
		listLen, n := binary.Uvarint(rest)
		if n <= 0 {
			return s.corrupt()
		}
		rest = rest[n:]
		s.key += delta
		s.entries = s.entries[:0]
		ref := uint64(0)
		for j := uint64(0); j < listLen; j++ {
			rd, n := binary.Uvarint(rest)
			if n <= 0 {
				return s.corrupt()
			}
			rest = rest[n:]
			c, n := binary.Uvarint(rest)
			if n <= 0 {
				return s.corrupt()
			}
			rest = rest[n:]
			if ref += rd; ref >= uint64(len(s.remap)) {
				return fmt.Errorf("store: segment %s: block %d: doc ref %d out of range", s.seg.path, s.block-1, ref)
			}
			if out := s.remap[ref]; out >= 0 {
				s.entries = append(s.entries, segPosting{Ref: out, Cnt: uint32(c)})
			}
		}
		s.rest = rest
		if len(s.entries) > 0 {
			s.list = s.entries
			return nil
		}
	}
}

func (s *postSource) corrupt() error {
	return fmt.Errorf("store: segment %s: block %d: bad varint", s.seg.path, s.block-1)
}

// readBlock makes the next block the current one, reading a new window of
// the posts section when the block is not inside the current one.
func (s *postSource) readBlock() error {
	sg := s.seg
	fe := sg.fences[s.block]
	off := sg.postsOff + fe.off
	if off < s.winOff || off+fe.n > s.winOff+int64(len(s.win)) {
		last := sg.fences[len(sg.fences)-1]
		n := min(max(fe.n, segReadWindow), sg.postsOff+last.off+last.n-off)
		s.win = slices.Grow(s.win[:0], int(n))[:n]
		if err := sg.readAt(s.win, off); err != nil {
			return fmt.Errorf("store: segment %s: reading block %d: %w", sg.path, s.block, err)
		}
		s.winOff = off
	}
	s.rest = s.win[off-s.winOff : off-s.winOff+fe.n]
	s.block++
	if len(s.rest) == 0 {
		return fmt.Errorf("store: segment %s: block %d is empty", sg.path, s.block-1)
	}
	return nil
}

// merger hands out the tuples of its sources in ascending order, each
// with the postings of every source that holds it. A write has few
// sources — the memtable and the segments of one merge — so it finds the
// smallest current tuple by scanning them, and it advances the sources
// it returned from only on the next call, so their lists need no copy.
type merger struct {
	srcs []postSource
	last []int // the sources next returned the tuple of

	// Scratch for a tuple several sources hold: their lists, where each
	// starts, and the lists merged by ref.
	list, merged []segPosting
	runs, heads  []int
}

func newMerger(srcs []postSource) (*merger, error) {
	for i := range srcs {
		if err := srcs[i].advance(); err != nil {
			return nil, err
		}
	}
	return &merger{srcs: srcs}, nil
}

// next returns the smallest tuple not returned yet and its postings from
// every source, ascending by ref, valid until the following call; ok is
// false once every source is exhausted.
func (m *merger) next() (key uint64, list []segPosting, ok bool, err error) {
	for _, i := range m.last {
		if err := m.srcs[i].advance(); err != nil {
			return 0, nil, false, err
		}
	}
	m.last = m.last[:0]
	for i := range m.srcs {
		s := &m.srcs[i]
		switch {
		case s.done:
		case len(m.last) == 0 || s.key < key:
			key, m.last = s.key, append(m.last[:0], i)
		case s.key == key:
			m.last = append(m.last, i)
		}
	}
	switch len(m.last) {
	case 0:
		return 0, nil, false, nil
	case 1:
		return key, m.srcs[m.last[0]].list, true, nil
	}
	// The refs of input segments interleave in the output's doc table.
	m.list, m.runs = m.list[:0], m.runs[:0]
	for _, i := range m.last {
		m.runs = append(m.runs, len(m.list))
		m.list = append(m.list, m.srcs[i].list...)
	}
	m.merged, m.heads = mergeRuns(m.merged, m.list, m.runs, m.heads)
	return key, m.merged, true, nil
}
