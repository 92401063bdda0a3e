// Package store persists pq-gram forest indexes — the durable form of the
// relation (treeId, pqg, cnt) of Figure 4 of the paper. Its one storage
// engine is the segmented store of this file: an LSM-style engine that
// keeps only recently mutated documents resident in the forest's
// in-memory postings and serves the rest from immutable on-disk segments
// (segment.go). Every mutation appends one journal record before it is
// applied in memory, so an incremental update persists its two small
// delta bags (λ(Δ⁻), λ(Δ⁺)), never the whole index — the paper's
// "persistent AND incrementally maintainable". store.go holds the
// single-file export format behind Save/Load. Every on-disk format is
// specified in STORAGE.md.
//
// Durable state is three kinds of file, all reached through the injected
// fsio.FS:
//
//   - the manifest (manifest.go) — the single source of truth for which
//     segment files are live, replaced atomically;
//   - segment files — immutable sorted runs of documents (bags + inverted
//     postings + tombstones + bloom filter), written once, never edited;
//   - the journal (wal.go) — one checksummed record per mutation, its
//     header bound to the manifest's content crc.
//
// The memtable is the forest itself: every document mutated since the
// last flush is resident (its postings live in the in-memory shards), and
// the dirty set tracks exactly that population. Flush writes the dirty
// documents plus the pending tombstones as one new segment, publishes it
// through an atomic manifest replace, evicts the flushed documents from
// the forest (forest.Evict — the bags drop, the registry entries stay),
// and resets the journal against the new manifest. Crash ordering:
//
//	segment durable → manifest replace → forest swap → journal reset
//
// A power cut between the manifest replace and the journal reset leaves a
// journal bound to the old manifest — OpenSegmented sees the crc mismatch
// and discards it, which is correct because the flush folded every
// journal record into the new segment before advancing the manifest. A
// cut before the manifest replace leaves at most an orphan segment file
// the manifest never names; the next flush reuses its sequence number and
// renames over it. Stale segments are therefore discarded, never
// resurrected, and the recovered state is always a prefix of the
// acknowledged operations.
//
// Mutating methods (Add, AddAll, Put, Remove, Update, Flush, Compact)
// must be serialized by the caller; lookups through the forest are
// concurrent with them. The store is the forest's storage tier
// (forest.Tier) and its open segments are the tier's runs (forest.Run):
// the forest reads them with its registry lock held, they touch only the
// immutable segment files and each segment's RAM-only table of the doc
// numbers it serves, and they panic on a read failure — a checksummed
// immutable file failing mid-read after its open-time verification means
// the storage itself is gone, and fabricating an empty answer would
// silently corrupt query results.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pqgram/internal/core"
	"pqgram/internal/edit"
	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// segLoc locates one evicted document: the live segment serving it and
// its index in that segment's doc table.
type segLoc struct {
	seg *segment
	ref int
}

// Segmented is a durable forest index that scales beyond RAM: a resident
// memtable (the forest) plus immutable on-disk segments, coordinated by a
// manifest and a write-ahead journal. See the package comment above for
// the crash-ordering contract.
type Segmented struct {
	fs     fsio.FS
	path   string
	forest *forest.Index
	wal    *wal // the journal, and the store's sticky poisoned state

	// flushDocs, when positive, auto-flushes after a mutation leaves at
	// least that many documents resident. Zero means flush only on demand.
	flushDocs int

	// mu guards the segment bookkeeping below. Lock order: the forest's
	// registry lock is always taken before mu (tier reads run under the
	// registry lock; Evict/Promote swap callbacks take mu inside it) —
	// a cross-package edge, so it lives here in prose rather than in the
	// package //pqlint:lockorder manifest.
	mu       sync.RWMutex
	segs     []*segment        // guarded by mu; live segments, ascending seq
	loc      map[string]segLoc // guarded by mu; evicted doc → live segment copy
	tombs    map[string]bool   // guarded by mu; flushed ids deleted/promoted since the last flush
	dirty    map[string]bool   // guarded by mu; resident ids (mutated since the last flush)
	nextSeq  uint64            // guarded by mu
	manCRC   uint32            // guarded by mu; crc of the live manifest; the journal header binds to it
	obsolete []uint64          // guarded by mu; superseded segment files whose removal is still pending

	obs      atomic.Pointer[storeMetrics]
	recovery RecoveryInfo
}

// Store-internal lock order: tier reads hold the store lock while they
// fault posting blocks in through a segment's block cache.
//
//pqlint:lockorder Segmented.mu < segment.mu

// OpenOrCreate opens the store rooted at path if its manifest exists and
// creates a new empty one with parameters pr otherwise — what a
// long-running service does with its -index flag.
func OpenOrCreate(path string, pr profile.Params) (*Segmented, error) {
	if _, err := os.Stat(manifestPath(path)); !errors.Is(err, os.ErrNotExist) {
		return OpenSegmented(path)
	}
	if err := legacySnapshot(fsio.OS, path); err != nil {
		return nil, err
	}
	return CreateSegmented(path, pr)
}

// legacySnapshot returns an error naming the format if path holds a
// "PQGI" snapshot: before there was a manifest, a store's base file lived
// at the bare path, and such an index must be rebuilt, not mistaken for a
// missing one and silently started empty next to.
func legacySnapshot(fsys fsio.FS, path string) error {
	fh, err := fsio.Open(fsys, path)
	if err != nil {
		return nil
	}
	defer fh.Close() //pqlint:allow errcheck-durability read-only probe of a file the store never writes
	var hdr [4]byte
	if _, err := io.ReadFull(fh, hdr[:]); err != nil || hdr != magic {
		return nil
	}
	return fmt.Errorf("store: %s is a legacy \"PQGI\" snapshot store (no %s); that engine is gone — rebuild the index with `pqindex build`",
		path, manifestPath(path))
}

// CreateSegmented creates a new empty segmented store rooted at path:
// path+".manifest", path+".wal", and path+".NNNNNN.seg" files as flushes
// happen.
func CreateSegmented(path string, pr profile.Params) (*Segmented, error) {
	return CreateSegmentedFS(fsio.OS, path, pr)
}

// CreateSegmentedFS is CreateSegmented against an injected filesystem.
func CreateSegmentedFS(fsys fsio.FS, path string, pr profile.Params) (*Segmented, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	crc, _, err := writeManifestFile(fsys, manifestPath(path), &manifest{pr: pr, nextSeq: 1})
	if err != nil {
		return nil, err
	}
	w, err := createWAL(fsys, walPath(path), crc)
	if err != nil {
		return nil, err
	}
	f := forest.New(pr)
	s := &Segmented{
		fs: fsys, path: path, forest: f, wal: w,
		loc: make(map[string]segLoc), tombs: make(map[string]bool), dirty: make(map[string]bool),
		nextSeq: 1, manCRC: crc,
	}
	f.SetTier(s)
	return s, nil
}

// OpenSegmented loads the manifest, opens and verifies every live
// segment, rebuilds the forest registry (resident docs from the journal,
// evicted ones as size-only entries), and replays the journal. Stale
// journals and orphan segment files left by a crash are discarded.
func OpenSegmented(path string) (*Segmented, error) {
	return OpenSegmentedFS(fsio.OS, path)
}

// OpenSegmentedFS is OpenSegmented against an injected filesystem.
func OpenSegmentedFS(fsys fsio.FS, path string) (*Segmented, error) {
	man, manCRC, err := loadManifestFile(fsys, manifestPath(path))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			if lerr := legacySnapshot(fsys, path); lerr != nil {
				return nil, lerr
			}
		}
		return nil, err
	}
	segs := make([]*segment, 0, len(man.segs))
	closeSegs := func() {
		for _, sg := range segs {
			// Failure-path cleanup of read-only handles during an open that
			// already returned its error.
			sg.close() //pqlint:allow errcheck-durability failure-path cleanup of read-only segment handles
		}
	}
	for _, ms := range man.segs {
		sg, err := openSegment(fsys, segmentPath(path, ms.seq), man.pr, ms.seq)
		if err != nil {
			closeSegs()
			return nil, err
		}
		if sg.crc != ms.crc {
			segs = append(segs, sg)
			closeSegs()
			return nil, fmt.Errorf("store: segment %s: content crc %08x, manifest says %08x", sg.path, sg.crc, ms.crc)
		}
		segs = append(segs, sg)
	}

	// Newer segments shadow older copies; a segment's tombstones kill
	// copies in older segments (within one segment doc ids and tombstones
	// are disjoint, so per-segment order does not matter).
	loc := make(map[string]segLoc)
	for _, sg := range segs {
		for ref := range sg.docs {
			loc[sg.docs[ref].id] = segLoc{seg: sg, ref: ref}
		}
		for _, id := range sg.tombs {
			delete(loc, id)
		}
	}

	f := forest.New(man.pr)
	ids := make([]string, 0, len(loc))
	for id := range loc {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	docs := make([]uint32, len(ids))
	for i, id := range ids {
		d := loc[id].seg.docs[loc[id].ref]
		if docs[i], err = f.AddEvicted(id, d.size, d.distinct); err != nil {
			closeSegs()
			return nil, err
		}
	}

	s := &Segmented{
		fs: fsys, path: path, forest: f,
		segs: segs, loc: loc, tombs: make(map[string]bool), dirty: make(map[string]bool),
		nextSeq: man.nextSeq, manCRC: manCRC,
	}
	s.mu.Lock()
	for i, id := range ids {
		l := loc[id]
		l.seg.docOf[l.ref] = docs[i]
	}
	s.mu.Unlock()
	f.SetTier(s)
	// Retry the removal of segments a previous compaction superseded; the
	// files are invisible to recovery either way.
	s.gcObsolete(man.obsolete)

	s.wal, s.recovery, err = openWAL(fsys, walPath(path), manCRC, s.applyRecoveredRecord)
	if err != nil {
		closeSegs()
		return nil, err
	}
	return s, nil
}

// applyRecoveredRecord replays one journal record during open, aware that
// the record may touch a document whose previous version lives in a
// segment: removals tombstone the segment copy, updates promote it back
// into the memtable first (exactly what the live paths did before the
// record was appended).
func (s *Segmented) applyRecoveredRecord(rec []byte) error {
	r := bytes.NewReader(rec[1:])
	switch rec[0] {
	case recAdd:
		id, err := readString(r)
		if err != nil {
			return err
		}
		bag, err := readBag(r)
		if err != nil {
			return err
		}
		if err := s.forest.AddIndex(id, bag); err != nil {
			return err
		}
		s.mu.Lock()
		s.dirty[id] = true
		s.mu.Unlock()
		return nil
	case recRemove:
		id, err := readString(r)
		if err != nil {
			return err
		}
		return s.removeApplied(id)
	case recUpdate:
		id, err := readString(r)
		if err != nil {
			return err
		}
		iMinus, err := readBag(r)
		if err != nil {
			return err
		}
		iPlus, err := readBag(r)
		if err != nil {
			return err
		}
		if err := s.promoteIfEvicted(id); err != nil {
			return err
		}
		return s.forest.ApplyDeltas(id, iPlus, iMinus)
	}
	return fmt.Errorf("unknown record type %q", rec[0])
}

// Recovery reports what OpenSegmented found and repaired. Zero for a
// freshly created store.
func (s *Segmented) Recovery() RecoveryInfo { return s.recovery }

// SetSync makes every journal append fsync before returning (durability
// over throughput; off by default).
func (s *Segmented) SetSync(on bool) { s.wal.sync = on }

// SetFlushThreshold sets the auto-flush trigger: after a mutation, if at
// least docs documents are resident, Flush runs inline. Zero (the
// default) disables auto-flush; Flush and Compact remain available.
func (s *Segmented) SetFlushThreshold(docs int) { s.flushDocs = docs }

// Forest returns the live in-memory index. Callers must not mutate it
// directly — use the store's Add/Remove/Update so changes are journaled.
func (s *Segmented) Forest() *forest.Index { return s.forest }

// Path returns the store's base path (the manifest is path+".manifest").
func (s *Segmented) Path() string { return s.path }

// JournalSize returns the current journal length in bytes.
func (s *Segmented) JournalSize() (int64, error) { return s.wal.size() }

// Close closes the journal and every open segment. The store must not be
// used afterwards.
func (s *Segmented) Close() error {
	err := s.wal.close()
	s.mu.Lock()
	for _, sg := range s.segs {
		if cerr := sg.close(); err == nil {
			err = cerr
		}
	}
	s.segs = nil
	s.mu.Unlock()
	return err
}

// --- mutations ---------------------------------------------------------

// Add indexes a tree and journals the addition.
func (s *Segmented) Add(id string, t *tree.Tree) error {
	if s.forest.Has(id) {
		return fmt.Errorf("store: tree %q already indexed", id)
	}
	idx := profile.BuildIndex(t, s.forest.Params())
	if err := s.journal(recAdd, addPayload(id, idx)); err != nil {
		return err
	}
	if err := s.forest.AddIndex(id, idx); err != nil {
		return err
	}
	s.mu.Lock()
	s.dirty[id] = true
	s.mu.Unlock()
	return s.maybeFlush()
}

// AddAll bulk-indexes documents: the trees are profiled concurrently on a
// worker pool (forest.BuildIndexes), journaled one record per document,
// and the bags merged into the sharded postings in parallel. The whole
// batch is validated up front — a duplicate ID rejects it before anything
// is journaled — and journaled atomically: its records go out as one
// write, so a failure leaves none of them behind to collide with a retry
// at the next open. workers < 1 means GOMAXPROCS.
func (s *Segmented) AddAll(docs []forest.Doc, workers int) error {
	seen := make(map[string]bool, len(docs))
	ids := make([]string, len(docs))
	for i, d := range docs {
		if s.forest.Has(d.ID) {
			return fmt.Errorf("store: tree %q already indexed", d.ID)
		}
		if seen[d.ID] {
			return fmt.Errorf("store: tree %q appears twice in batch", d.ID)
		}
		seen[d.ID] = true
		ids[i] = d.ID
	}
	bags := forest.BuildIndexes(docs, s.forest.Params(), workers)
	payloads := make([][]byte, len(bags))
	for i, bag := range bags {
		payloads[i] = addPayload(ids[i], bag)
	}
	if err := s.journal(recAdd, payloads...); err != nil {
		return err
	}
	if err := s.forest.AddIndexes(ids, bags, workers); err != nil {
		return err
	}
	s.mu.Lock()
	for _, id := range ids {
		s.dirty[id] = true
	}
	s.mu.Unlock()
	return s.maybeFlush()
}

// Remove drops a tree and journals the removal. If the document's bag
// lives in a segment, the copy is tombstoned: the next flush makes the
// deletion durable in segment form, and until then the journal record
// carries it.
func (s *Segmented) Remove(id string) error {
	if !s.forest.Has(id) {
		return fmt.Errorf("store: tree %q not indexed", id)
	}
	var payload bytes.Buffer
	writeString(&payload, id)
	if err := s.journal(recRemove, payload.Bytes()); err != nil {
		return err
	}
	return s.removeApplied(id)
}

// removeApplied applies a removal whose journal record is already
// durable: drop the forest entry and, under the same registry write lock,
// the tier location (marking the segment copy dead and tombstoning it, if
// a segment holds one). The removal frees the document's doc number for
// the next registration, so no lookup may run between the two steps.
func (s *Segmented) removeApplied(id string) error {
	return s.forest.RemoveSwap(id, func() {
		s.mu.Lock()
		if l, ok := s.loc[id]; ok {
			l.seg.docOf[l.ref] = forest.NoDoc
			delete(s.loc, id)
			s.tombs[id] = true
		}
		delete(s.dirty, id)
		s.mu.Unlock()
	})
}

// Put replaces a document, journaling a removal (if the id is indexed)
// followed by an addition, and returns the new document's pq-gram count.
// A crash in between recovers to the state with the document absent — a
// prefix of the two sub-steps.
func (s *Segmented) Put(id string, t *tree.Tree) (int, error) {
	if s.forest.Has(id) {
		if err := s.Remove(id); err != nil {
			return 0, err
		}
	}
	if err := s.Add(id, t); err != nil {
		return 0, err
	}
	grams, _, _ := s.forest.TreeStats(id)
	return grams, nil
}

// Update incrementally maintains one document's index (Algorithm 1),
// journaling only the two delta bags — the persistent-update cost is
// proportional to the log, not to the index. A flushed document is
// promoted back into the memtable first — promotion changes no content
// and is not journaled; replay re-promotes when it reaches the update
// record.
func (s *Segmented) Update(id string, tn *tree.Tree, log edit.Log) (core.Stats, error) {
	if !s.forest.Has(id) {
		return core.Stats{}, fmt.Errorf("store: tree %q not indexed", id)
	}
	iPlus, iMinus, st, err := core.Deltas(tn, log, s.forest.Params())
	if err != nil {
		return st, err
	}
	// Promote before journaling: if it fails, nothing was appended and
	// nothing changed; a crash right after it recovers the document as
	// still evicted, which is the same content.
	if err := s.promoteIfEvicted(id); err != nil {
		return st, err
	}
	var payload bytes.Buffer
	writeString(&payload, id)
	writeBag(&payload, iMinus)
	writeBag(&payload, iPlus)
	if err := s.journal(recUpdate, payload.Bytes()); err != nil {
		return st, err
	}
	if err := s.forest.ApplyDeltas(id, iPlus, iMinus); err != nil {
		return st, err
	}
	return st, s.maybeFlush()
}

// promoteIfEvicted pulls a flushed document's bag out of its segment and
// back into the memtable, marking the segment copy dead and tombstoning it
// under the same registry write lock (forest.Promote's swap callback) so
// no lookup can count the document twice.
func (s *Segmented) promoteIfEvicted(id string) error {
	s.mu.RLock()
	l, ok := s.loc[id]
	s.mu.RUnlock()
	if !ok {
		return nil
	}
	bag, err := l.seg.bag(l.ref)
	if err != nil {
		return err
	}
	return s.forest.Promote(id, bag, func() {
		s.mu.Lock()
		l.seg.docOf[l.ref] = forest.NoDoc
		delete(s.loc, id)
		s.tombs[id] = true
		s.dirty[id] = true
		s.mu.Unlock()
	})
}

// maybeFlush runs Flush when auto-flush is enabled and the resident
// population reached the threshold.
func (s *Segmented) maybeFlush() error {
	if s.flushDocs <= 0 {
		return nil
	}
	s.mu.RLock()
	n := len(s.dirty)
	s.mu.RUnlock()
	if n < s.flushDocs {
		return nil
	}
	return s.Flush()
}

// --- flush and compaction ----------------------------------------------

// Flush writes every resident document plus the pending tombstones as one
// new segment, publishes it through an atomic manifest replace, evicts
// the flushed documents from the memtable, and resets the journal against
// the new manifest. A no-op when nothing is resident and no tombstones
// are pending. See the package comment for the crash ordering.
func (s *Segmented) Flush() error {
	if err := s.wal.usable(); err != nil {
		return err
	}
	s.mu.RLock()
	ids := make([]string, 0, len(s.dirty))
	for id := range s.dirty {
		ids = append(ids, id)
	}
	tombsOut := make([]string, 0, len(s.tombs))
	for id := range s.tombs {
		// A tombstoned id that is also resident (promoted, then kept) is
		// re-stored by this very segment; the newer copy shadows the old
		// one, so no tombstone is needed.
		if !s.dirty[id] {
			tombsOut = append(tombsOut, id)
		}
	}
	seq := s.nextSeq
	liveSegs := make([]manifestSeg, 0, len(s.segs)+1)
	for _, sg := range s.segs {
		liveSegs = append(liveSegs, manifestSeg{seq: sg.seq, crc: sg.crc})
	}
	pending := append([]uint64(nil), s.obsolete...)
	s.mu.RUnlock()
	if len(ids) == 0 && len(tombsOut) == 0 {
		return nil
	}
	m := s.obs.Load()
	var t0 time.Time
	var sp *obs.Span
	if m != nil {
		t0 = time.Now()
		sp = m.col.StartTrace("store.flush")
		defer sp.Finish()
	}
	sort.Strings(ids)
	sort.Strings(tombsOut)
	docs := make([]segDoc, len(ids))
	for i, id := range ids {
		bag := s.forest.TreeIndex(id)
		if bag == nil {
			return fmt.Errorf("store: flush: resident tree %q not indexed", id)
		}
		docs[i] = segDoc{id: id, bag: bag}
	}

	segName := segmentPath(s.path, seq)
	crc, _, err := writeSegment(s.fs, segName, s.forest.Params(), seq, docs, tombsOut)
	if err != nil {
		// Whether or not the rename happened, the manifest does not name
		// this segment: the store's durable state is untouched and the
		// next flush renames over the same sequence number.
		return err
	}
	// Open-verify before publishing: the manifest must never name a
	// segment that does not read back byte-exact.
	sg, err := openSegment(s.fs, segName, s.forest.Params(), seq)
	if err != nil {
		return fmt.Errorf("store: flush: verifying new segment: %w", err)
	}
	if sg.crc != crc {
		sg.close() //pqlint:allow errcheck-durability failure-path cleanup of a rejected read-only handle
		return fmt.Errorf("store: flush: segment %s read back with crc %08x, wrote %08x", segName, sg.crc, crc)
	}

	man := &manifest{
		pr:       s.forest.Params(),
		nextSeq:  seq + 1,
		segs:     append(liveSegs, manifestSeg{seq: seq, crc: crc}),
		obsolete: pending,
	}
	manCRC, renamed, err := writeManifestFile(s.fs, manifestPath(s.path), man)
	if err != nil {
		sg.close() //pqlint:allow errcheck-durability failure-path cleanup of a read-only handle; the segment stays unpublished
		if renamed {
			// The live segment set advanced on disk but its durability is
			// uncertain, and memory no longer matches it.
			s.wal.failed = err
			return fmt.Errorf("store: flush: manifest replaced but not settled: %w", err)
		}
		return err // old manifest + intact journal: nothing lost
	}
	if err := s.forest.Evict(ids, func(docs []uint32) {
		s.mu.Lock()
		sg.docOf = docs // the doc table is ids, in order
		s.segs = append(s.segs, sg)
		for i, id := range ids {
			s.loc[id] = segLoc{seg: sg, ref: i}
		}
		s.tombs = make(map[string]bool)
		s.dirty = make(map[string]bool)
		s.nextSeq = seq + 1
		s.manCRC = manCRC
		s.mu.Unlock()
	}); err != nil {
		// The manifest already advanced; a memtable that refuses to match
		// it cannot accept further writes safely.
		s.wal.failed = err
		return fmt.Errorf("store: flush: evicting flushed documents: %w", err)
	}
	if err := s.wal.reset(manCRC); err != nil {
		return fmt.Errorf("store: flush: journal reset failed: %w", err)
	}
	if m != nil {
		m.flushes.Inc()
		m.flushedDocs.Add(int64(len(ids)))
		m.flushNS.ObserveSince(t0)
		m.journalBytes.Set(journalHeaderLen)
		s.publishGauges(m)
		sp.SetAttr("seq", int64(seq))
		sp.SetAttr("docs", int64(len(ids)))
		sp.SetAttr("tombstones", int64(len(tombsOut)))
		sp.SetAttr("segment_bytes", sg.size)
		m.col.Event("segment flushed",
			"path", segName, "seq", seq, "docs", len(ids),
			"tombstones", len(tombsOut), "bytes", sg.size)
	}
	return nil
}

// Compact merges the memtable and every live segment into one new
// segment with no tombstones, replaces the manifest with exactly that
// segment (naming the superseded files obsolete), and resets the journal.
// The same crash ordering as Flush applies; superseded segment files are
// removed best-effort afterwards, and the manifest's obsolete list lets
// the next open retry any removal that did not stick.
func (s *Segmented) Compact() error {
	if err := s.wal.usable(); err != nil {
		return err
	}
	m := s.obs.Load()
	var t0 time.Time
	var sp *obs.Span
	if m != nil {
		t0 = time.Now()
		sp = m.col.StartTrace("store.compact")
		defer sp.Finish()
	}
	s.mu.RLock()
	resident := make([]string, 0, len(s.dirty))
	for id := range s.dirty {
		resident = append(resident, id)
	}
	all := make([]string, 0, len(s.dirty)+len(s.loc))
	all = append(all, resident...)
	for id := range s.loc {
		all = append(all, id)
	}
	seq := s.nextSeq
	oldSegs := append([]*segment(nil), s.segs...)
	pending := append([]uint64(nil), s.obsolete...)
	s.mu.RUnlock()
	sort.Strings(resident)
	sort.Strings(all)

	docs := make([]segDoc, len(all))
	for i, id := range all {
		bag := s.forest.TreeIndex(id)
		if bag == nil {
			return fmt.Errorf("store: compact: tree %q not indexed", id)
		}
		docs[i] = segDoc{id: id, bag: bag}
	}

	obsolete := pending
	for _, sg := range oldSegs {
		obsolete = append(obsolete, sg.seq)
	}
	sort.Slice(obsolete, func(i, j int) bool { return obsolete[i] < obsolete[j] })

	man := &manifest{pr: s.forest.Params(), nextSeq: seq, obsolete: obsolete}
	var sg *segment
	if len(docs) > 0 {
		segName := segmentPath(s.path, seq)
		crc, _, err := writeSegment(s.fs, segName, s.forest.Params(), seq, docs, nil)
		if err != nil {
			return err
		}
		sg, err = openSegment(s.fs, segName, s.forest.Params(), seq)
		if err != nil {
			return fmt.Errorf("store: compact: verifying new segment: %w", err)
		}
		if sg.crc != crc {
			sg.close() //pqlint:allow errcheck-durability failure-path cleanup of a rejected read-only handle
			return fmt.Errorf("store: compact: segment %s read back with crc %08x, wrote %08x", segName, sg.crc, crc)
		}
		man.nextSeq = seq + 1
		man.segs = []manifestSeg{{seq: seq, crc: crc}}
	}
	manCRC, renamed, err := writeManifestFile(s.fs, manifestPath(s.path), man)
	if err != nil {
		if sg != nil {
			sg.close() //pqlint:allow errcheck-durability failure-path cleanup of a read-only handle; the segment stays unpublished
		}
		if renamed {
			s.wal.failed = err
			return fmt.Errorf("store: compact: manifest replaced but not settled: %w", err)
		}
		return err
	}
	if err := s.forest.Evict(resident, func(docs []uint32) {
		s.mu.Lock()
		for _, og := range oldSegs {
			// Read-only handles of superseded files; their content is
			// durable in the new segment already.
			og.close() //pqlint:allow errcheck-durability read-only handle of a superseded segment; its content is in the new one
		}
		s.segs = nil
		if sg != nil {
			s.segs = []*segment{sg}
			// A document keeps its doc number: the resident ones report
			// theirs, the evicted ones' are in the tables being retired.
			for i, id := range all {
				if j, ok := slices.BinarySearch(resident, id); ok {
					sg.docOf[i] = docs[j]
				} else {
					l := s.loc[id]
					sg.docOf[i] = l.seg.docOf[l.ref]
				}
			}
		}
		s.loc = make(map[string]segLoc, len(all))
		for i, id := range all {
			s.loc[id] = segLoc{seg: sg, ref: i}
		}
		s.tombs = make(map[string]bool)
		s.dirty = make(map[string]bool)
		s.nextSeq = man.nextSeq
		s.manCRC = manCRC
		s.obsolete = obsolete
		s.mu.Unlock()
	}); err != nil {
		s.wal.failed = err
		return fmt.Errorf("store: compact: evicting documents: %w", err)
	}
	if err := s.wal.reset(manCRC); err != nil {
		return fmt.Errorf("store: compact: journal reset failed: %w", err)
	}
	s.gcObsolete(obsolete)
	if m != nil {
		m.compactions.Inc()
		m.compactNS.ObserveSince(t0)
		m.journalBytes.Set(journalHeaderLen)
		s.publishGauges(m)
		sp.SetAttr("seq", int64(seq))
		sp.SetAttr("docs", int64(len(all)))
		sp.SetAttr("merged_segments", int64(len(oldSegs)))
		m.col.Event("segments compacted",
			"path", s.path, "seq", seq, "docs", len(all), "merged", len(oldSegs))
	}
	return nil
}

// gcObsolete attempts to remove the named superseded segment files and
// records the ones whose removal must be retried later. A file already
// gone counts as removed.
func (s *Segmented) gcObsolete(seqs []uint64) {
	var remain []uint64
	for _, seq := range seqs {
		if err := s.fs.Remove(segmentPath(s.path, seq)); err != nil && !errors.Is(err, os.ErrNotExist) {
			remain = append(remain, seq)
		}
	}
	s.mu.Lock()
	s.obsolete = remain
	s.mu.Unlock()
}

// journal appends one record of type typ per payload through the wal —
// all of them as one write, all or nothing — and accounts for them.
func (s *Segmented) journal(typ byte, payloads ...[]byte) error {
	m := s.obs.Load()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	var recs bytes.Buffer
	for _, payload := range payloads {
		appendRecord(&recs, typ, payload)
	}
	if err := s.wal.append(recs.Bytes()); err != nil {
		return err
	}
	if m != nil {
		m.appends.Add(int64(len(payloads)))
		m.appendBytes.Add(int64(recs.Len()))
		m.journalBytes.Add(int64(recs.Len()))
		m.appendNS.ObserveSince(t0)
		if sp := m.col.StartTrace("store.append"); sp != nil {
			// Synthesized after the fact so the un-sampled path does not
			// even start a span inside the write sequence.
			sp.SetAttr("bytes", int64(recs.Len()))
			sp.FinishWithDuration(time.Since(t0))
		}
	}
	return nil
}

// addPayload renders the payload of an add record: id, full bag.
func addPayload(id string, bag profile.Index) []byte {
	var buf bytes.Buffer
	writeString(&buf, id)
	writeBag(&buf, bag)
	return buf.Bytes()
}

// --- the forest.Tier implementation ------------------------------------

// AppendRuns implements forest.Tier: the live segments.
func (s *Segmented) AppendRuns(dst []forest.Run) []forest.Run {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, sg := range s.segs {
		dst = append(dst, sg)
	}
	return dst
}

// FilterHash implements forest.Tier with the segments' bloom hash.
func (s *Segmented) FilterHash(lt profile.LabelTuple) (h1, h2 uint64) { return bloomHash(uint64(lt)) }

// Bag implements forest.Tier: a fresh copy of one evicted document's bag.
// Panics on a segment read failure.
func (s *Segmented) Bag(id string) (profile.Index, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.loc[id]
	if !ok {
		return nil, false
	}
	bag, err := l.seg.bag(l.ref)
	if err != nil {
		panic(fmt.Sprintf("store: segment %s: unrecoverable read during lookup: %v", l.seg.path, err))
	}
	return bag, true
}

// --- introspection ------------------------------------------------------

// SegmentStats summarizes the segmented store's current shape, for
// `pqindex info` and the serve tier's stats endpoint.
type SegmentStats struct {
	Segments          int    `json:"segments"`
	SegmentBytes      int64  `json:"segment_bytes"`
	ResidentDocs      int    `json:"resident_docs"`
	EvictedDocs       int    `json:"evicted_docs"`
	PendingTombstones int    `json:"pending_tombstones"`
	NextSeq           uint64 `json:"next_seq"`
}

// Stats returns the store's current segment shape.
func (s *Segmented) Stats() SegmentStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := SegmentStats{
		Segments:          len(s.segs),
		ResidentDocs:      len(s.dirty),
		EvictedDocs:       len(s.loc),
		PendingTombstones: len(s.tombs),
		NextSeq:           s.nextSeq,
	}
	for _, sg := range s.segs {
		st.SegmentBytes += sg.size
	}
	return st
}
