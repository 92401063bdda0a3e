// Segment files: the immutable on-disk runs of the segmented store
// (segstore.go). A segment holds a sorted set of documents — their full
// pq-gram bags and an inverted posting index over them — plus the
// tombstones that were pending when it was flushed, a bloom filter over
// its distinct label-tuple fingerprints, and a whole-file crc32. The
// exact byte layout is specified in STORAGE.md; this file (the reader)
// and segwrite.go (the writer) are its reference implementation, and the
// three must not drift.
//
// Layout (all integers unsigned varints unless noted; sections in file
// order, section offsets recorded in the fixed-size footer):
//
//	header:  magic "PQGS" | version byte | p | q | seq
//	docs:    numDocs × ( idLen | id | size | distinct | bagLen )   ascending id
//	tombs:   numTombs × ( idLen | id )                             ascending id
//	bags:    per doc, in doc-table order:
//	           distinct × ( tuple delta | cnt )                    ascending tuple
//	posts:   blocks of ≤ segBlockTuples tuples, each self-contained:
//	           numTuples × ( tuple delta (first absolute) | listLen |
//	                         listLen × ( docRef delta (first absolute) | cnt ) )
//	fences:  numBlocks × ( firstTuple delta | blockOff delta | blockLen )
//	bloom:   numWords | numWords × word (uint64 BE)
//	footer:  docsOff bagsOff postsOff fencesOff bloomOff (5 × uint64 BE)
//	         | crc32-IEEE of all preceding bytes (BE) | trailer "SGPQ"
//
// Doc references in posting lists are indexes into the segment's own doc
// table, so a posting entry costs one or two bytes instead of repeating
// the document id. Opening a segment streams the whole file once through
// the checksum while retaining only the doc table, tombstones, fences and
// bloom filter in memory; bags and posting blocks are read positionally
// afterwards through a small decoded-block cache.
package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/profile"
)

var (
	segMagic   = [4]byte{'P', 'Q', 'G', 'S'}
	segTrailer = [4]byte{'S', 'G', 'P', 'Q'}
)

const (
	segVersion = 1
	// segFooterLen is the fixed footer: five uint64 section offsets, the
	// crc32, and the trailer magic.
	segFooterLen = 5*8 + 4 + 4
	// segBlockTuples caps the tuples per posting block: small enough that
	// decoding one block on a point probe stays cheap, large enough that
	// the fence index stays tiny.
	segBlockTuples = 64
	// segBlockCacheCap bounds the decoded posting blocks retained per
	// segment (FIFO eviction). Tuple fingerprints are uniformly hashed,
	// so a similarity query's probes scatter across the whole posting
	// section rather than clustering — the cache must hold a segment's
	// working set of blocks, not a handful of hot ones, or every lookup
	// re-decodes the section from the file. At 64 tuples per block this
	// covers ~256k distinct tuples per segment, a few thousand documents,
	// while keeping the worst-case decoded footprint bounded.
	segBlockCacheCap = 4096
)

// segDocMeta is a doc-table entry of an open segment.
type segDocMeta struct {
	id       string
	size     int   // bag size (sum of counts)
	distinct int   // distinct tuples in the bag
	bagOff   int64 // offset of the bag region, relative to bagsOff
	bagLen   int64
}

// segFence locates one posting block: the first tuple it contains and its
// byte extent relative to the posts section start.
type segFence struct {
	first uint64
	off   int64
	n     int64
}

// segPosting is one decoded posting-list entry: a doc-table index and the
// tuple's count in that document — the forest's run posting, so decoded
// lists reach the lookup paths as they are.
type segPosting = forest.RunPosting

// segBlock is one decoded posting block: the posting list of tuples[i] is
// entries[starts[i]:starts[i+1]]. Decoded blocks stay cached for the life
// of the segment, so the form is the compact one.
type segBlock struct {
	tuples  []uint64
	starts  []uint32
	entries []segPosting
}

func (b *segBlock) list(i int) []segPosting { return b.entries[b.starts[i]:b.starts[i+1]] }

// segment is an open, verified segment file, and one run of the forest's
// storage tier (forest.Run). The metadata fields and the file handle are
// immutable after openSegment; bags and posting blocks are read with
// positioned reads, which share no file offset and take no lock. mu
// serializes only the block cache's installs and evictions and the close.
type segment struct {
	fs   fsio.FS
	path string
	seq  uint64
	crc  uint32
	size int64

	docs  []segDocMeta
	tombs []string

	// docOf maps each doc-table index to the forest's doc number of the
	// document it serves, forest.NoDoc for a copy that is shadowed by a
	// newer segment, deleted or promoted. RAM only: rebuilt at open, then
	// written only inside the forest's swap callbacks, under its registry
	// write lock — which is what lets lookups use it unlocked.
	docOf []uint32 // guarded by Segmented.mu

	fences []segFence
	bloom  *bloomFilter

	bagsOff  int64
	postsOff int64

	f fsio.File

	mu     sync.Mutex
	closed bool                       // guarded by mu
	cache  []atomic.Pointer[segBlock] // decoded blocks by block index; read lock-free, filled and evicted under mu
	order  []int                      // guarded by mu; FIFO eviction order of the cached block indexes
}

// --- reader -----------------------------------------------------------

// openSegment opens and fully verifies a segment file: one sequential
// pass computes the whole-file checksum while parsing the doc table,
// tombstones, fences and bloom filter; bags and posting blocks are only
// length-validated here and read positionally later. pr and seq must
// match the file's header — the manifest says what the segment claims
// to be, and the file has to agree.
func openSegment(fsys fsio.FS, path string, pr profile.Params, seq uint64) (*segment, error) {
	fh, err := fsio.Open(fsys, path)
	if err != nil {
		return nil, err
	}
	s, err := parseSegment(fsys, fh, path, pr, seq)
	if err != nil {
		// Failure-path cleanup of a read-only handle whose content was
		// rejected anyway.
		fh.Close() //pqlint:allow errcheck-durability failure-path cleanup of a rejected read-only handle
		return nil, err
	}
	return s, nil
}

func parseSegment(fsys fsio.FS, fh fsio.File, path string, pr profile.Params, seq uint64) (*segment, error) {
	st, err := fh.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < segFooterLen+5 {
		return nil, fmt.Errorf("store: segment %s: truncated (%d bytes)", path, size)
	}
	if _, err := fh.Seek(size-segFooterLen, io.SeekStart); err != nil {
		return nil, err
	}
	var foot [segFooterLen]byte
	if _, err := io.ReadFull(fh, foot[:]); err != nil {
		return nil, fmt.Errorf("store: segment %s: reading footer: %w", path, err)
	}
	if [4]byte(foot[44:48]) != segTrailer {
		return nil, fmt.Errorf("store: segment %s: bad trailer %q", path, foot[44:48])
	}
	var offs [5]int64
	for i := range offs {
		v := binary.BigEndian.Uint64(foot[i*8:])
		if v > uint64(size-segFooterLen) {
			return nil, fmt.Errorf("store: segment %s: section offset %d out of range", path, v)
		}
		offs[i] = int64(v)
		if i > 0 && offs[i] < offs[i-1] {
			return nil, fmt.Errorf("store: segment %s: section offsets not ascending", path)
		}
	}
	docsOff, bagsOff, postsOff, fencesOff, bloomOff := offs[0], offs[1], offs[2], offs[3], offs[4]
	wantCRC := binary.BigEndian.Uint32(foot[40:44])

	if _, err := fh.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	cr := newCRCReader(fh, 1<<16)
	filePR, err := readHeader(cr, segMagic, segVersion)
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: %w", path, err)
	}
	if filePR != pr {
		return nil, fmt.Errorf("store: segment %s: params %d,%d do not match index %d,%d", path, filePR.P, filePR.Q, pr.P, pr.Q)
	}
	gotSeq, err := getUvarint(cr, 1<<62)
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: reading seq: %w", path, err)
	}
	if gotSeq != seq {
		return nil, fmt.Errorf("store: segment %s: header seq %d, manifest says %d", path, gotSeq, seq)
	}
	if cr.n != docsOff {
		return nil, fmt.Errorf("store: segment %s: doc table at %d, footer says %d", path, cr.n, docsOff)
	}

	numDocs, err := getUvarint(cr, 1<<31-1)
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: reading doc count: %w", path, err)
	}
	docs := make([]segDocMeta, 0, min(numDocs, maxHint))
	var bagOff int64
	for i := uint64(0); i < numDocs; i++ {
		id, err := readID(cr)
		if err != nil {
			return nil, fmt.Errorf("store: segment %s: doc %d: %w", path, i, err)
		}
		if i > 0 && id <= docs[i-1].id {
			return nil, fmt.Errorf("store: segment %s: doc ids not ascending at %q", path, id)
		}
		dsize, err := getUvarint(cr, 1<<50)
		if err != nil {
			return nil, fmt.Errorf("store: segment %s: doc %q: reading size: %w", path, id, err)
		}
		distinct, err := getUvarint(cr, 1<<50)
		if err != nil {
			return nil, fmt.Errorf("store: segment %s: doc %q: reading distinct: %w", path, id, err)
		}
		bagLen, err := getUvarint(cr, 1<<50)
		if err != nil {
			return nil, fmt.Errorf("store: segment %s: doc %q: reading bag length: %w", path, id, err)
		}
		// Every bag entry takes at least two bytes and counts at least one,
		// so these bound what a promotion will allocate for the bag.
		if distinct > bagLen/2 || dsize < distinct {
			return nil, fmt.Errorf("store: segment %s: doc %q: %d distinct tuples impossible in %d bytes of size %d", path, id, distinct, bagLen, dsize)
		}
		if int64(bagLen) > postsOff-bagsOff-bagOff {
			return nil, fmt.Errorf("store: segment %s: doc %q: bag extends past the bag section", path, id)
		}
		docs = append(docs, segDocMeta{id: id, size: int(dsize), distinct: int(distinct), bagOff: bagOff, bagLen: int64(bagLen)})
		bagOff += int64(bagLen)
	}
	numTombs, err := getUvarint(cr, 1<<31-1)
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: reading tombstone count: %w", path, err)
	}
	tombs := make([]string, 0, min(numTombs, maxHint))
	for i := uint64(0); i < numTombs; i++ {
		id, err := readID(cr)
		if err != nil {
			return nil, fmt.Errorf("store: segment %s: tombstone %d: %w", path, i, err)
		}
		if i > 0 && id <= tombs[i-1] {
			return nil, fmt.Errorf("store: segment %s: tombstones not ascending at %q", path, id)
		}
		// The doc table is verified ascending above.
		if _, dup := slices.BinarySearchFunc(docs, id, func(d segDocMeta, id string) int { return strings.Compare(d.id, id) }); dup {
			return nil, fmt.Errorf("store: segment %s: %q is both stored and tombstoned", path, id)
		}
		tombs = append(tombs, id)
	}
	if cr.n != bagsOff {
		return nil, fmt.Errorf("store: segment %s: bags at %d, footer says %d", path, cr.n, bagsOff)
	}
	if bagOff != postsOff-bagsOff {
		return nil, fmt.Errorf("store: segment %s: bag section is %d bytes, doc table sums to %d", path, postsOff-bagsOff, bagOff)
	}
	// Bags and posting blocks are checksummed but not decoded at open.
	if _, err := io.CopyN(io.Discard, cr, fencesOff-bagsOff); err != nil {
		return nil, fmt.Errorf("store: segment %s: checksumming data sections: %w", path, err)
	}

	numBlocks, err := getUvarint(cr, 1<<40)
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: reading fence count: %w", path, err)
	}
	fences := make([]segFence, 0, min(numBlocks, maxHint))
	prevFirst, off := uint64(0), int64(0)
	for i := uint64(0); i < numBlocks; i++ {
		fd, err := getUvarint(cr, 1<<63)
		if err != nil {
			return nil, fmt.Errorf("store: segment %s: fence %d: %w", path, i, err)
		}
		if i > 0 && fd == 0 {
			return nil, fmt.Errorf("store: segment %s: fence %d: duplicate first tuple", path, i)
		}
		od, err := getUvarint(cr, 1<<50)
		if err != nil {
			return nil, fmt.Errorf("store: segment %s: fence %d: %w", path, i, err)
		}
		n, err := getUvarint(cr, 1<<50)
		if err != nil {
			return nil, fmt.Errorf("store: segment %s: fence %d: %w", path, i, err)
		}
		prevFirst += fd
		off += int64(od)
		fences = append(fences, segFence{first: prevFirst, off: off, n: int64(n)})
		if off+int64(n) > fencesOff-postsOff {
			return nil, fmt.Errorf("store: segment %s: fence %d extends past posts section", path, i)
		}
	}
	if len(fences) > 0 {
		last := fences[len(fences)-1]
		if last.off+last.n != fencesOff-postsOff {
			return nil, fmt.Errorf("store: segment %s: posts section is %d bytes, fences cover %d", path, fencesOff-postsOff, last.off+last.n)
		}
	} else if fencesOff != postsOff {
		return nil, fmt.Errorf("store: segment %s: %d posting bytes with no fences", path, fencesOff-postsOff)
	}
	if cr.n != bloomOff {
		return nil, fmt.Errorf("store: segment %s: bloom at %d, footer says %d", path, cr.n, bloomOff)
	}
	bloom, err := unmarshalBloom(cr, size-segFooterLen-bloomOff)
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: reading bloom filter: %w", path, err)
	}
	if cr.n != size-segFooterLen {
		return nil, fmt.Errorf("store: segment %s: bloom ends at %d, footer starts at %d", path, cr.n, size-segFooterLen)
	}
	// The footer's offset words are covered by the checksum too.
	var footAgain [5 * 8]byte
	if _, err := io.ReadFull(cr, footAgain[:]); err != nil {
		return nil, fmt.Errorf("store: segment %s: re-reading footer: %w", path, err)
	}
	if got := cr.h.Sum32(); got != wantCRC {
		return nil, fmt.Errorf("store: segment %s: checksum mismatch: file %08x, computed %08x", path, wantCRC, got)
	}

	// No copy is live until the store says which document it serves.
	docOf := make([]uint32, len(docs))
	for i := range docOf {
		docOf[i] = forest.NoDoc
	}
	return &segment{
		fs:       fsys,
		path:     path,
		seq:      seq,
		crc:      wantCRC,
		size:     size,
		docs:     docs,
		docOf:    docOf,
		tombs:    tombs,
		fences:   fences,
		bloom:    bloom,
		bagsOff:  bagsOff,
		postsOff: postsOff,
		f:        fh,
		cache:    make([]atomic.Pointer[segBlock], len(fences)),
	}, nil
}

// close releases the segment's file handle. The store closes a segment
// only once no reader can reach it: at Close, or inside the swap that
// retires it, under the forest's registry write lock.
func (s *segment) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}

// readAt fills p from the segment file at off.
func (s *segment) readAt(p []byte, off int64) error {
	n, err := s.f.ReadAt(p, off)
	if n == len(p) {
		return nil // io.ReaderAt may report io.EOF with a full read
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// bag reads and decodes one document's bag.
func (s *segment) bag(ref int) (profile.Bag, error) {
	if ref < 0 || ref >= len(s.docs) {
		return profile.Bag{}, fmt.Errorf("store: segment %s: doc ref %d out of range", s.path, ref)
	}
	d := s.docs[ref]
	buf := make([]byte, d.bagLen)
	if err := s.readAt(buf, s.bagsOff+d.bagOff); err != nil {
		return profile.Bag{}, fmt.Errorf("store: segment %s: reading bag of %q: %w", s.path, d.id, err)
	}
	br := bytes.NewReader(buf)
	bag, err := readSortedBag(br, uint64(d.distinct))
	if err != nil {
		return profile.Bag{}, fmt.Errorf("store: segment %s: bag of %q: %w", s.path, d.id, err)
	}
	if br.Len() != 0 {
		return profile.Bag{}, fmt.Errorf("store: segment %s: bag of %q: %d trailing bytes", s.path, d.id, br.Len())
	}
	return bag, nil
}

// block returns decoded posting block bi through the FIFO block cache. A
// miss reads and decodes the block with no lock held; only installing it
// (and evicting the oldest) takes mu, and a reader that lost the race to
// install the same block drops its copy for the winner's.
func (s *segment) block(bi int) (*segBlock, error) {
	if b := s.cache[bi].Load(); b != nil {
		return b, nil
	}
	fe := s.fences[bi]
	buf := make([]byte, fe.n)
	if err := s.readAt(buf, s.postsOff+fe.off); err != nil {
		return nil, fmt.Errorf("store: segment %s: reading block %d: %w", s.path, bi, err)
	}
	b, err := decodeBlock(buf, len(s.docs))
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: block %d: %w", s.path, bi, err)
	}
	if len(b.tuples) == 0 || b.tuples[0] != fe.first {
		return nil, fmt.Errorf("store: segment %s: block %d does not start at its fence tuple", s.path, bi)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur := s.cache[bi].Load(); cur != nil {
		return cur, nil
	}
	if len(s.order) >= segBlockCacheCap {
		s.cache[s.order[0]].Store(nil)
		s.order = s.order[1:]
	}
	s.cache[bi].Store(b)
	s.order = append(s.order, bi)
	return b, nil
}

func decodeBlock(buf []byte, numDocs int) (*segBlock, error) {
	br := bytes.NewReader(buf)
	b := &segBlock{}
	// All posting entries land in one backing array, the per-tuple lists
	// are views into it. A block is decoded on every cache miss of every
	// probe, so the allocation count matters more here than anywhere else
	// in the read path.
	var entries []segPosting
	prevT := uint64(0)
	for br.Len() > 0 {
		if len(b.tuples) >= segBlockTuples {
			return nil, fmt.Errorf("more than %d tuples", segBlockTuples)
		}
		delta, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if len(b.tuples) > 0 && delta == 0 {
			return nil, fmt.Errorf("duplicate tuple")
		}
		prevT += delta
		listLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if listLen == 0 || listLen > uint64(numDocs) {
			return nil, fmt.Errorf("posting list length %d out of range", listLen)
		}
		b.starts = append(b.starts, uint32(len(entries)))
		prevRef := uint64(0)
		for j := uint64(0); j < listLen; j++ {
			rd, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			if j > 0 && rd == 0 {
				return nil, fmt.Errorf("duplicate doc ref")
			}
			prevRef += rd
			if prevRef >= uint64(numDocs) {
				return nil, fmt.Errorf("doc ref %d out of range", prevRef)
			}
			cnt, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			if cnt == 0 {
				return nil, fmt.Errorf("zero count")
			}
			entries = append(entries, segPosting{Ref: int32(prevRef), Cnt: uint32(cnt)})
		}
		b.tuples = append(b.tuples, prevT)
	}
	b.starts = append(b.starts, uint32(len(entries)))
	b.entries = slices.Clone(entries) // drop append's spare capacity
	return b, nil
}

// fenceFor returns the index of the block that could contain lt, or -1.
func (s *segment) fenceFor(lt uint64) int {
	// Last fence with first <= lt.
	lo, hi := 0, len(s.fences)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.fences[mid].first <= lt {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// Docs implements forest.Run.
func (s *segment) Docs() []uint32 {
	//pqlint:allow lockcheck the forest calls this under its registry read lock, and the table changes only inside the swap callbacks of Evict, Promote and RemoveSwap, which hold the registry write lock
	return s.docOf
}

// MayContain implements forest.Run over the segment's bloom filter.
func (s *segment) MayContain(h1, h2 uint64) bool { return s.bloom.mayContain(h1, h2) }

// Postings implements forest.Run: fence index, then the block through the
// cache, then a binary search within it — spelled out, because this is the
// hottest call of a tier lookup and slices.BinarySearch is not inlined. It
// panics on a read failure (see the package comment).
func (s *segment) Postings(lt profile.LabelTuple) []segPosting {
	fi := s.fenceFor(uint64(lt))
	if fi < 0 {
		return nil
	}
	blk, err := s.block(fi)
	if err != nil {
		panic(fmt.Sprintf("store: segment %s: unrecoverable read during lookup: %v", s.path, err))
	}
	lo, hi := 0, len(blk.tuples)
	for lo < hi {
		if mid := (lo + hi) / 2; blk.tuples[mid] < uint64(lt) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(blk.tuples) && blk.tuples[lo] == uint64(lt) {
		return blk.list(lo)
	}
	return nil
}
