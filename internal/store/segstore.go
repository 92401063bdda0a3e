// Package store persists pq-gram forest indexes — the durable form of the
// relation (treeId, pqg, cnt) of Figure 4 of the paper. Its one storage
// engine is the segmented store of this file: an LSM-style engine that
// keeps only recently mutated documents resident in the forest's
// in-memory postings and serves the rest from immutable on-disk segments
// (segment.go). Every mutation runs check → journal → apply: it is
// checked against the live state (an update's I⁻ by forest.ApplyDeltas,
// under the document's lock, with the journal append as its commit),
// appended to the journal in one write, and only then applied in memory,
// so every journaled record replays. An incremental update persists its
// two small delta bags (λ(Δ⁻), λ(Δ⁺)), never the whole index — the
// paper's "persistent AND incrementally maintainable". store.go holds the
// single-file export format behind Save/Load, and codec.go the encodings
// every format shares (atomic replace, checksummed stream, header, id,
// sorted bag). Every on-disk format is specified in STORAGE.md.
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
// Merges keep the segment count logarithmic: after each flush, while the
// newest mergeFanIn (4) or more segments share a size tier (⌊log₄ of
// their doc count⌋), Flush replaces that suffix of the segment list with
// one segment of its live documents — dead copies dropped, every document
// keeping its doc number, a tombstone kept only while an older segment
// may still hold its id. Compact is the merge of everything, memtable
// included. A flush, a merge and a compaction are one rewrite: one
// streaming k-way write over the memtable's bags and the input segments'
// posting blocks (segwrite.go), then the same ordering through the same
// two steps — publish (write the segment, open-verify it, replace the
// manifest) and settle (the forest swap, the journal reset). A new writer
// of segments builds on those two rather than on the steps inside them.
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

// Store-internal lock order: Close and the swap that retires merged
// segments close them under the store lock, and a segment's close takes
// its own lock (which otherwise guards only its block cache's installs).
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
	s.obs.Store(&storeMetrics{})
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
	s.obs.Store(&storeMetrics{})
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
		id, err := readID(r)
		if err != nil {
			return err
		}
		bag, err := readBag(r)
		if err != nil {
			return err
		}
		return s.addApplied(id, profile.Freeze(bag))
	case recRemove:
		id, err := readID(r)
		if err != nil {
			return err
		}
		return s.removeApplied(id)
	case recUpdate:
		id, err := readID(r)
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
		return s.applyUpdate(id, iPlus, iMinus, nil)
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

// Add indexes a tree and journals the addition. It fails if the ID is
// taken.
func (s *Segmented) Add(id string, t *tree.Tree) error {
	if s.forest.Has(id) {
		return fmt.Errorf("store: tree %q already indexed", id)
	}
	_, err := s.Put(id, t)
	return err
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
	recs := make([]record, len(bags))
	for i, bag := range bags {
		recs[i] = record{recAdd, addPayload(ids[i], bag)}
	}
	if err := s.journal(recs...); err != nil {
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

// addApplied applies an addition whose journal record is already durable:
// the bag joins the forest and the document the memtable.
func (s *Segmented) addApplied(id string, bag profile.Bag) error {
	if err := s.forest.AddIndex(id, bag); err != nil {
		return err
	}
	s.mu.Lock()
	s.dirty[id] = true
	s.mu.Unlock()
	return nil
}

// Remove drops a tree and journals the removal. If the document's bag
// lives in a segment, the copy is tombstoned: the next flush makes the
// deletion durable in segment form, and until then the journal record
// carries it.
func (s *Segmented) Remove(id string) error {
	if !s.forest.Has(id) {
		return fmt.Errorf("store: tree %q %w", id, forest.ErrNotIndexed)
	}
	if err := s.journal(record{recRemove, idPayload(id)}); err != nil {
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

// Put indexes t under id, replacing any document indexed there, and
// returns the new document's pq-gram count. A replacement journals the
// removal and the addition as one append — one write, and in sync mode
// one fsync — so a crash recovers the old document, none, or the new one.
func (s *Segmented) Put(id string, t *tree.Tree) (int, error) {
	bag := profile.Freeze(profile.BuildIndex(t, s.forest.Params()))
	var recs []record
	replace := s.forest.Has(id)
	if replace {
		recs = append(recs, record{recRemove, idPayload(id)})
	}
	recs = append(recs, record{recAdd, addPayload(id, bag)})
	if err := s.journal(recs...); err != nil {
		return 0, err
	}
	if replace {
		if err := s.removeApplied(id); err != nil {
			return 0, err
		}
	}
	if err := s.addApplied(id, bag); err != nil {
		return 0, err
	}
	return bag.Size(), s.maybeFlush()
}

// Update incrementally maintains one document's index (Algorithm 1),
// journaling only the two delta bags — the persistent-update cost is
// proportional to the log, not to the index. The journal append is
// ApplyDeltas's commit: it runs after the forest checked that the bag
// contains I⁻, and before anything changes, so a foreign log is rejected
// with nothing journaled.
func (s *Segmented) Update(id string, tn *tree.Tree, log edit.Log) (core.Stats, error) {
	iPlus, iMinus, st, err := core.Deltas(tn, log, s.forest.Params())
	if err != nil {
		return st, err
	}
	err = s.applyUpdate(id, iPlus, iMinus, func() error {
		var payload bytes.Buffer
		writeID(&payload, id)
		writeBag(&payload, profile.Freeze(iMinus))
		writeBag(&payload, profile.Freeze(iPlus))
		return s.journal(record{recUpdate, payload.Bytes()})
	})
	if err != nil {
		return st, err
	}
	return st, s.maybeFlush()
}

// applyUpdate applies one update's deltas, the live path with the
// journal append as commit and replay with none. A flushed document is
// promoted back into the memtable first; promotion changes no content
// and is not journaled, so a crash right after it recovers the document
// as still evicted, and replay re-promotes when it reaches the record.
func (s *Segmented) applyUpdate(id string, iPlus, iMinus profile.Index, commit func() error) error {
	if err := s.promoteIfEvicted(id); err != nil {
		return err
	}
	return s.forest.ApplyDeltas(id, iPlus, iMinus, commit)
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

// --- flush, merges and compaction --------------------------------------

// mergeFanIn is T of the size-tiered merge policy: once the newest T
// segments share a size tier, Flush merges them into one.
const mergeFanIn = 4

// sizeTier is the size tier of a segment holding docs documents:
// ⌊log_T docs⌋, so a tier spans a factor of T and the merge of T segments
// of one tier lands in the next.
func sizeTier(docs int) int {
	t := 0
	for ; docs >= mergeFanIn; docs /= mergeFanIn {
		t++
	}
	return t
}

// Flush writes every resident document plus the pending tombstones as one
// new segment, publishes it through an atomic manifest replace, evicts
// the flushed documents from the memtable, and resets the journal against
// the new manifest. Then, while the newest mergeFanIn or more segments
// share a size tier, it merges them into one, so the segment count stays
// logarithmic in the corpus. The flush is a no-op when nothing is
// resident and no tombstones are pending. See the package comment for the
// crash ordering.
func (s *Segmented) Flush() error {
	if err := s.wal.usable(); err != nil {
		return err
	}
	if err := s.flush(); err != nil {
		return err
	}
	for from := s.tierRun(); from >= 0; from = s.tierRun() {
		if err := s.merge(from); err != nil {
			return err
		}
	}
	return nil
}

// flush is Flush's first step: the memtable becomes segment number
// nextSeq, after every live one. A no-op when nothing is resident and no
// tombstones are pending.
func (s *Segmented) flush() error {
	s.mu.RLock()
	idle := len(s.dirty) == 0 && len(s.tombs) == 0
	from := len(s.segs)
	s.mu.RUnlock()
	if idle {
		return nil
	}
	m := s.obs.Load()
	t0 := time.Now()
	sp := m.col.StartTrace("store.flush")
	defer sp.Finish()
	w, err := s.rewrite("flush", from, true)
	if err != nil {
		return err
	}
	m.flushes.Inc()
	m.flushedDocs.Add(int64(w.mem))
	m.flushNS.ObserveSince(t0)
	m.journalBytes.Set(journalHeaderLen)
	s.publishGauges(m)
	sp.SetAttr("seq", int64(w.seq))
	sp.SetAttr("docs", int64(w.mem))
	sp.SetAttr("tombstones", int64(len(w.plan.tombs)))
	sp.SetAttr("segment_bytes", w.bytes)
	m.col.Event("segment flushed",
		"path", segmentPath(s.path, w.seq), "seq", w.seq, "docs", w.mem,
		"tombstones", len(w.plan.tombs), "bytes", w.bytes)
	return nil
}

// tierRun returns the index of the first segment of the newest run of
// segments in one size tier when that run holds at least mergeFanIn
// segments, and -1 otherwise. Flush keeps every run shorter than that, so
// the run it finds is normally exactly mergeFanIn long; a longer one is a
// store written before the policy, which its first flush then folds.
func (s *Segmented) tierRun() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.segs)
	if n < mergeFanIn {
		return -1
	}
	tier := sizeTier(len(s.segs[n-1].docs))
	from := n - 1
	for from > 0 && sizeTier(len(s.segs[from-1].docs)) == tier {
		from--
	}
	if n-from < mergeFanIn {
		return -1
	}
	return from
}

// merge replaces the live segments from index from on with one segment of
// their live documents, each keeping its doc number, and the tombstones
// older segments still need.
func (s *Segmented) merge(from int) error {
	m := s.obs.Load()
	sp := m.col.StartTrace("store.merge")
	defer sp.Finish()
	w, err := s.rewrite("merge", from, false)
	if err != nil {
		return err
	}
	m.merges.Inc()
	m.mergeDocs.Add(int64(len(w.plan.docs)))
	m.mergeBytes.Add(w.bytes)
	m.journalBytes.Set(journalHeaderLen)
	s.publishGauges(m)
	sp.SetAttr("seq", int64(w.seq))
	sp.SetAttr("docs", int64(len(w.plan.docs)))
	sp.SetAttr("tombstones", int64(len(w.plan.tombs)))
	sp.SetAttr("merged_segments", int64(len(w.plan.ins)))
	sp.SetAttr("segment_bytes", w.bytes)
	m.col.Event("segments merged",
		"path", s.path, "seq", w.seq, "docs", len(w.plan.docs),
		"merged", len(w.plan.ins), "bytes", w.bytes)
	return nil
}

// Compact merges the memtable and every live segment into one new
// segment with no tombstones — a flush and a merge of everything, in one
// write — replaces the manifest with exactly that segment (naming the
// superseded files obsolete), and resets the journal. The same crash
// ordering as Flush applies; superseded segment files are removed
// best-effort afterwards, and the manifest's obsolete list lets the next
// open retry any removal that did not stick.
func (s *Segmented) Compact() error {
	if err := s.wal.usable(); err != nil {
		return err
	}
	m := s.obs.Load()
	t0 := time.Now()
	sp := m.col.StartTrace("store.compact")
	defer sp.Finish()
	w, err := s.rewrite("compact", 0, true)
	if err != nil {
		return err
	}
	m.compactions.Inc()
	m.compactNS.ObserveSince(t0)
	m.merges.Inc()
	m.mergeDocs.Add(int64(len(w.plan.docs)))
	m.mergeBytes.Add(w.bytes)
	m.journalBytes.Set(journalHeaderLen)
	s.publishGauges(m)
	sp.SetAttr("seq", int64(w.seq))
	sp.SetAttr("docs", int64(len(w.plan.docs)))
	sp.SetAttr("merged_segments", int64(len(w.plan.ins)))
	m.col.Event("segments compacted",
		"path", s.path, "seq", w.seq, "docs", len(w.plan.docs), "merged", len(w.plan.ins))
	return nil
}

// rewriteResult is what one rewrite wrote: the sequence number it used,
// its plan, how many documents came from the memtable, and the new
// segment's size (0 when it wrote none).
type rewriteResult struct {
	seq   uint64
	plan  *segPlan
	mem   int
	bytes int64
}

// rewrite is the one segment write behind Flush, the tier merges and
// Compact: it writes the live copies in segments [from, len) and, with
// mem, the memtable's documents and pending tombstones as one new segment
// (planSegment says what survives), publishes it in place of the segments
// it read, and settles — the memtable documents move to the tier, the
// others keep their doc numbers. A flush reads no segment (from is the
// segment count), a tier merge no memtable, a compaction everything.
func (s *Segmented) rewrite(op string, from int, mem bool) (*rewriteResult, error) {
	s.mu.RLock()
	ins := slices.Clone(s.segs[from:])
	docOf := make([][]uint32, len(ins))
	for j, sg := range ins {
		docOf[j] = slices.Clone(sg.docOf)
	}
	var resident, tombs []string
	if mem {
		for id := range s.dirty {
			resident = append(resident, id)
		}
		for id := range s.tombs {
			tombs = append(tombs, id)
		}
	}
	man := &manifest{pr: s.forest.Params(), nextSeq: s.nextSeq, obsolete: slices.Clone(s.obsolete)}
	for _, sg := range s.segs[:from] {
		man.segs = append(man.segs, manifestSeg{seq: sg.seq, crc: sg.crc})
	}
	s.mu.RUnlock()
	sort.Strings(resident)
	docs := make([]segDoc, len(resident))
	for i, id := range resident {
		bag, ok := s.forest.Bag(id)
		if !ok {
			return nil, fmt.Errorf("store: %s: tree %q %w", op, id, forest.ErrNotIndexed)
		}
		docs[i] = segDoc{id: id, bag: bag}
	}
	plan, err := planSegment(docs, tombs, ins, docOf, from == 0)
	if err != nil {
		return nil, err
	}
	for _, sg := range ins {
		man.obsolete = append(man.obsolete, sg.seq)
	}
	slices.Sort(man.obsolete)
	obsolete := slices.Clone(man.obsolete)
	w := &rewriteResult{seq: man.nextSeq, plan: plan, mem: len(resident)}
	sg, manCRC, err := s.publish(op, man, plan)
	if err != nil {
		return nil, err
	}
	err = s.settle(op, resident, manCRC, func(memDocs []uint32) {
		s.mu.Lock()
		segs := slices.Clone(s.segs[:from])
		if sg != nil {
			r := 0
			for i, d := range plan.docs {
				if d.in < 0 {
					sg.docOf[i] = memDocs[r] // memtable documents are ascending by id in both
					r++
				} else {
					sg.docOf[i] = docOf[d.in][d.ref]
				}
				s.loc[d.id] = segLoc{seg: sg, ref: i}
			}
			segs = append(segs, sg)
		}
		for _, og := range ins {
			// Read-only handles of superseded files; their content is
			// durable in the new segment already, and the registry write
			// lock held here keeps every reader out.
			og.close() //pqlint:allow errcheck-durability read-only handle of a superseded segment; its content is in the new one
		}
		s.segs = segs
		if mem {
			s.tombs = make(map[string]bool)
			s.dirty = make(map[string]bool)
		}
		s.nextSeq = man.nextSeq
		s.manCRC = manCRC
		s.obsolete = obsolete
		s.mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	if len(ins) > 0 {
		s.gcObsolete(obsolete)
	}
	if sg != nil {
		w.bytes = sg.size
	}
	return w, nil
}

// publish is the durable half of the crash ordering (package comment):
// it writes plan as segment man.nextSeq, reads the file back through
// openSegment, and atomically replaces the manifest with man naming the
// new segment too. A plan with no docs and no tombs writes no segment:
// the manifest is replaced alone and the segment returned is nil. Until
// the manifest rename nothing durable has changed — an orphan segment
// file is invisible, and the next write renames over its sequence number
// — so an error is returned as is; a rename that does not settle poisons
// the store, since the disk has advanced past what memory holds.
func (s *Segmented) publish(op string, man *manifest, plan *segPlan) (*segment, uint32, error) {
	var sg *segment
	if len(plan.docs) > 0 || len(plan.tombs) > 0 {
		seq := man.nextSeq
		name := segmentPath(s.path, seq)
		crc, _, err := plan.write(s.fs, name, man.pr, seq)
		if err != nil {
			return nil, 0, err
		}
		// The manifest must never name a segment that does not read back
		// byte-exact.
		if sg, err = openSegment(s.fs, name, man.pr, seq); err != nil {
			return nil, 0, fmt.Errorf("store: %s: verifying new segment: %w", op, err)
		}
		if sg.crc != crc {
			sg.close() //pqlint:allow errcheck-durability failure-path cleanup of a rejected read-only handle
			return nil, 0, fmt.Errorf("store: %s: segment %s read back with crc %08x, wrote %08x", op, name, sg.crc, crc)
		}
		man.segs = append(man.segs, manifestSeg{seq: seq, crc: crc})
		man.nextSeq = seq + 1
	}
	manCRC, renamed, err := writeManifestFile(s.fs, manifestPath(s.path), man)
	if err != nil {
		if sg != nil {
			sg.close() //pqlint:allow errcheck-durability failure-path cleanup of a read-only handle; the segment stays unpublished
		}
		if renamed {
			// The live segment set advanced on disk but its durability is
			// uncertain, and memory no longer matches it.
			s.wal.failed = err
			return nil, 0, fmt.Errorf("store: %s: manifest replaced but not settled: %w", op, err)
		}
		return nil, 0, err // old manifest + intact journal: nothing lost
	}
	return sg, manCRC, nil
}

// settle is the in-memory half, after publish: forest.Evict moves evict
// out of the memtable and runs swap — which installs the published state
// under the store lock — under the registry write lock, and the journal
// is reset against the new manifest. A failure poisons the store: the
// manifest has advanced already, and a memtable or journal that does not
// match it cannot take further writes safely.
func (s *Segmented) settle(op string, evict []string, manCRC uint32, swap func(docs []uint32)) error {
	if err := s.forest.Evict(evict, swap); err != nil {
		s.wal.failed = err
		return fmt.Errorf("store: %s: evicting documents: %w", op, err)
	}
	if err := s.wal.reset(manCRC); err != nil {
		return fmt.Errorf("store: %s: journal reset failed: %w", op, err)
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

// record is one journal record before it is rendered: its type and its
// payload.
type record struct {
	typ     byte
	payload []byte
}

// journal appends the records rs through the wal — all of them as one
// write, all or nothing — and accounts for them.
func (s *Segmented) journal(rs ...record) error {
	m := s.obs.Load()
	t0 := time.Now()
	var recs bytes.Buffer
	for _, r := range rs {
		appendRecord(&recs, r.typ, r.payload)
	}
	if err := s.wal.append(recs.Bytes()); err != nil {
		return err
	}
	m.appends.Add(int64(len(rs)))
	m.appendBytes.Add(int64(recs.Len()))
	m.journalBytes.Add(int64(recs.Len()))
	m.appendNS.ObserveSince(t0)
	if sp := m.col.StartTrace("store.append"); sp != nil {
		// Synthesized after the fact so the un-sampled path does not
		// even start a span inside the write sequence.
		sp.SetAttr("bytes", int64(recs.Len()))
		sp.FinishWithDuration(time.Since(t0))
	}
	return nil
}

// idPayload renders the payload of a remove record: the id.
func idPayload(id string) []byte {
	var buf bytes.Buffer
	writeID(&buf, id)
	return buf.Bytes()
}

// addPayload renders the payload of an add record: id, full bag.
func addPayload(id string, bag profile.Bag) []byte {
	var buf bytes.Buffer
	writeID(&buf, id)
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

// Bag implements forest.Tier: one evicted document's bag, decoded from
// its segment. Panics on a segment read failure.
func (s *Segmented) Bag(id string) (profile.Bag, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.loc[id]
	if !ok {
		return profile.Bag{}, false
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
