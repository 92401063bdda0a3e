// The write-ahead journal of the store: the one place that knows the
// journal's bytes ("PQGJ", specified in STORAGE.md), how a record gets
// onto disk atomically, and what an open may trust of a journal it finds.
//
// Crash-consistency protocol. The header binds the journal to the exact
// manifest it extends, by recording the manifest's content crc32. Flush
// and Compact first replace the manifest atomically and only then reset
// the journal; a crash in between leaves a journal whose header names the
// *old* manifest — openWAL sees the mismatch and discards it, because
// every record it holds is already folded into the segments the new
// manifest names. Without the binding, those records would be replayed a
// second time onto state that already contains them. Similarly, a failed
// or short append is rolled back by truncating to the previous boundary,
// so an ENOSPC cannot leave garbage that would wedge later appends
// between valid records.

package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"pqgram/internal/fsio"
	"pqgram/internal/profile"
)

// journal record types.
const (
	recAdd    = 'A' // id, full bag
	recRemove = 'R' // id
	recUpdate = 'U' // id, I⁻ bag, I⁺ bag
)

var journalMagic = [4]byte{'P', 'Q', 'G', 'J'}

// journalVersion 2 introduced the binding header: magic, a version byte,
// then the crc32 (big endian) of the manifest the journal extends.
// Version-1 journals had no version byte; they are detected as foreign
// (record types are ASCII letters, never 2) and reset.
const (
	journalVersion   = 2
	journalHeaderLen = 4 + 1 + 4
)

func journalHeader(bindCRC uint32) []byte {
	hdr := make([]byte, journalHeaderLen)
	copy(hdr, journalMagic[:])
	hdr[4] = journalVersion
	binary.BigEndian.PutUint32(hdr[5:], bindCRC)
	return hdr
}

// RecoveryInfo describes what an open found and did while bringing the
// store back: how much of the journal was intact, and what had to be
// dropped or reset to get back to a consistent state.
type RecoveryInfo struct {
	Records int64 // intact records replayed
	Bytes   int64 // bytes of intact records replayed

	TornBytes      int64 // trailing bytes dropped: an append interrupted mid-write
	SkippedRecords int64 // complete records dropped because their checksum failed
	StaleJournal   bool  // journal predated the manifest (crash during Flush/Compact); discarded whole
	JournalReset   bool  // header missing or foreign; journal reinitialized
	DiscardedBytes int64 // bytes thrown away by a stale/reset discard

	Duration time.Duration // wall time of the replay
}

// wal is an open journal positioned at a record boundary.
type wal struct {
	f    fsio.File
	off  int64 // current journal length: the next record boundary
	sync bool  // fsync every append and reset before returning

	// failed is the store's one sticky poisoned state: set when the durable
	// state on disk is unknown (a rollback or reset that itself failed, a
	// failed fsync, a manifest replace that did not settle). Every later
	// mutation is refused rather than journaled onto garbage.
	failed error
}

// createWAL creates (or truncates) the journal at path with a header
// bound to bindCRC.
func createWAL(fsys fsio.FS, path string, bindCRC uint32) (*wal, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(journalHeader(bindCRC)); err != nil {
		f.Close() //pqlint:allow errcheck-durability failure-path cleanup of a journal that was never used
		return nil, err
	}
	return &wal{f: f, off: journalHeaderLen}, nil
}

// openWAL opens the journal at path, hands every intact record of a
// journal bound to bindCRC to apply, in order, and leaves the file
// positioned at a clean record boundary. A torn or corrupt tail (a crash
// during an append) is truncated away after everything before it was
// applied; a journal bound to a different manifest, a foreign one or an
// empty one is reinitialized without applying anything. An apply error
// fails the open and leaves the file untouched.
func openWAL(fsys fsio.FS, path string, bindCRC uint32, apply func(rec []byte) error) (*wal, RecoveryInfo, error) {
	var info RecoveryInfo
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, info, err
	}
	w := &wal{f: f, off: journalHeaderLen}
	t0 := time.Now()
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close() //pqlint:allow errcheck-durability failure-path cleanup; the open already failed
		return nil, info, err
	}
	reinit := false
	switch {
	case len(data) == 0:
		// Fresh journal (or one whose creation never became durable).
		reinit = true
	case len(data) < journalHeaderLen || [4]byte(data[:4]) != journalMagic || data[4] != journalVersion:
		// Foreign bytes, a torn header, or a pre-versioning journal:
		// nothing in it can be trusted.
		info.JournalReset = true
		info.DiscardedBytes = int64(len(data))
		reinit = true
	case binary.BigEndian.Uint32(data[5:9]) != bindCRC:
		// The journal extends a different manifest than the one on disk.
		// The only writers that replace the manifest are Flush and Compact,
		// and both fold every journal record into the new segment set
		// before the replace — so these records are already applied.
		// Replaying them would double-apply; discard instead.
		info.StaleJournal = true
		info.DiscardedBytes = int64(len(data) - journalHeaderLen)
		reinit = true
	default:
		recs, bodyValid, badCRC := scanRecords(data[journalHeaderLen:])
		for i, rec := range recs {
			if err := apply(rec); err != nil {
				f.Close() //pqlint:allow errcheck-durability failure-path cleanup; the open already failed
				return nil, info, fmt.Errorf("store: journal record %d: %w", i, err)
			}
		}
		info.Records = int64(len(recs))
		info.Bytes = bodyValid
		info.TornBytes = int64(len(data)) - journalHeaderLen - bodyValid
		if badCRC {
			// A complete record with a bad checksum is indistinguishable
			// from a torn multi-record tail; everything after it is
			// untrusted and dropped with it.
			info.SkippedRecords = 1
		}
		w.off += bodyValid
	}
	if reinit {
		err = w.rewriteHeader(bindCRC)
	} else {
		// Drop any torn tail so future appends start at a clean boundary.
		if err = f.Truncate(w.off); err == nil {
			_, err = f.Seek(w.off, io.SeekStart)
		}
	}
	if err != nil {
		f.Close() //pqlint:allow errcheck-durability failure-path cleanup; the open already failed
		return nil, info, err
	}
	info.Duration = time.Since(t0)
	return w, info, nil
}

// usable returns the poisoning error, wrapped, or nil.
func (w *wal) usable() error {
	if w.failed != nil {
		return fmt.Errorf("store: unusable after earlier failure: %w", w.failed)
	}
	return nil
}

// size returns the journal's length on disk in bytes.
func (w *wal) size() (int64, error) {
	fi, err := w.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (w *wal) close() error { return w.f.Close() }

// appendRecord renders one length-prefixed, checksummed record onto buf.
func appendRecord(buf *bytes.Buffer, typ byte, payload []byte) {
	buf.WriteByte(typ)
	putUvarint(buf, uint64(len(payload)))
	buf.Write(payload)
	crc := crc32.NewIEEE()
	crc.Write([]byte{typ})
	crc.Write(payload)
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc.Sum32())
	buf.Write(sum[:])
}

// append writes recs — one or more whole records rendered by appendRecord
// — as a single write at the current record boundary (and, in sync mode,
// a single fsync): a batch is journaled atomically or not at all. On any
// failure the journal is rolled back to the boundary it had before the
// call, so a half-written record can never sit between valid ones and no
// record of a failed batch survives to be replayed; if even the rollback
// fails, the store is poisoned.
func (w *wal) append(recs []byte) error {
	if err := w.usable(); err != nil {
		return err
	}
	n, err := w.f.Write(recs)
	if err != nil || n < len(recs) {
		if err == nil {
			err = io.ErrShortWrite
		}
		w.rollback(n)
		return err
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			// The records may or may not be durable; roll them back, and
			// treat the device as untrustworthy from here on (a failed
			// fsync leaves the page cache in an unknown state).
			w.rollback(n)
			w.failed = err
			return err
		}
	}
	w.off += int64(len(recs))
	return nil
}

// rollback restores the journal to the last record boundary after wrote
// bytes of a failed append. A rollback that itself fails poisons the
// store: the on-disk journal may now end mid-record and later appends
// would be unrecoverable noise after it.
func (w *wal) rollback(wrote int) {
	if wrote > 0 {
		if err := w.f.Truncate(w.off); err != nil {
			w.failed = err
			return
		}
	}
	if _, err := w.f.Seek(w.off, io.SeekStart); err != nil {
		w.failed = err
	}
}

// reset empties the journal and binds it to bindCRC. Any crash inside
// leaves an empty, torn or stale journal — all of which openWAL resolves
// to "no records", which is correct because the caller has already made
// the segments contain everything. A failed reset poisons the store:
// appending to a journal that the next open will discard would silently
// lose acknowledged operations.
func (w *wal) reset(bindCRC uint32) error {
	err := w.rewriteHeader(bindCRC)
	if err == nil && w.sync {
		err = w.f.Sync()
	}
	if err != nil {
		w.failed = err
	}
	return err
}

// rewriteHeader truncates the file to nothing but a header bound to
// bindCRC and positions it after the header.
func (w *wal) rewriteHeader(bindCRC uint32) error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := w.f.Write(journalHeader(bindCRC)); err != nil {
		return err
	}
	w.off = journalHeaderLen
	return nil
}

// scanRecords parses the journal body (everything after the header) and
// returns the intact records, the offset of the end of the last one, and
// whether scanning stopped at a structurally complete record whose
// checksum failed (as opposed to running out of bytes mid-record).
func scanRecords(data []byte) (recs [][]byte, valid int64, badCRC bool) {
	for {
		rec, n, bad := nextRecord(data[valid:])
		if n == 0 {
			return recs, valid, bad
		}
		recs = append(recs, rec)
		valid += int64(n)
	}
}

// nextRecord parses one record from the front of data, returning the
// payload (with type byte prefixed) and the total record length, or n = 0
// if the data does not contain one intact record. badCRC reports the
// stop reason: all the record's bytes were present but the checksum did
// not match.
func nextRecord(data []byte) (rec []byte, n int, badCRC bool) {
	if len(data) < 1 {
		return nil, 0, false
	}
	typ := data[0]
	plen, lenLen := binary.Uvarint(data[1:])
	if lenLen <= 0 || plen > uint64(len(data)) {
		return nil, 0, false
	}
	start := 1 + lenLen
	end := start + int(plen)
	if end+4 > len(data) {
		return nil, 0, false
	}
	crc := crc32.NewIEEE()
	crc.Write([]byte{typ})
	crc.Write(data[start:end])
	if binary.BigEndian.Uint32(data[end:end+4]) != crc.Sum32() {
		return nil, 0, true
	}
	out := make([]byte, 0, 1+int(plen))
	out = append(out, typ)
	out = append(out, data[start:end]...)
	return out, end + 4, false
}

// writeBag renders a journal bag: numTuples | numTuples × ( tuple | cnt ),
// tuples absolute rather than delta-encoded (the journal predates the
// shared sorted bag and keeps its own encoding). The order is still
// canonical, the frozen bag's: a journal record must be byte-identical
// for identical logical content.
func writeBag(buf *bytes.Buffer, bag profile.Bag) {
	putUvarint(buf, uint64(bag.Distinct()))
	for i := 0; i < bag.Distinct(); i++ {
		lt, c := bag.At(i)
		putUvarint(buf, uint64(lt))
		putUvarint(buf, uint64(c))
	}
}

func readBag(r *bytes.Reader) (profile.Index, error) {
	n, err := getUvarint(r, 1<<50)
	if err != nil {
		return nil, err
	}
	idx := make(profile.Index, min(n, maxHint))
	for i := uint64(0); i < n; i++ {
		lt, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		c, err := getUvarint(r, 1<<50)
		if err != nil {
			return nil, err
		}
		if c == 0 {
			return nil, fmt.Errorf("bag entry with zero count")
		}
		idx[profile.LabelTuple(lt)] += int(c)
	}
	return idx, nil
}
