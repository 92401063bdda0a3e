// The manifest of a segmented store: the single small file that says
// which segments are live. Everything else about the segmented store's
// durable state derives from it — segment files not named by the current
// manifest do not exist as far as recovery is concerned, and the
// journal's header binds to the manifest's content checksum.
// The manifest is replaced atomically (temp + fsync + rename + dir
// fsync), so a crash anywhere leaves either the complete old manifest or
// the complete new one; see STORAGE.md for the recovery matrix.
//
// Layout (varints unless noted):
//
//	magic "PQGM" | version byte | p | q | nextSeq
//	| numSegs  × ( seq | segment file crc32 (4 bytes BE) )   ascending seq
//	| numObsolete × seq                                      ascending seq
//	| crc32-IEEE of everything above (4 bytes BE)
//
// The obsolete list names segment files superseded by a compaction whose
// removal may not have happened yet (file removal is best-effort): the
// next open retries the removal, and the next manifest write drops the
// list. The trailing crc32 is the manifest's identity — writeManifestFile
// returns it, the journal header records it.
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"pqgram/internal/fsio"
	"pqgram/internal/profile"
)

var manMagic = [4]byte{'P', 'Q', 'G', 'M'}

const manVersion = 1

// manifestSeg names one live segment: its sequence number (which is its
// file name) and the content crc32 its file must carry.
type manifestSeg struct {
	seq uint64
	crc uint32
}

// manifest is the decoded form of the manifest file.
type manifest struct {
	pr       profile.Params
	nextSeq  uint64
	segs     []manifestSeg // ascending seq
	obsolete []uint64      // ascending seq; files pending removal
}

// manifestPath returns the manifest file for a store rooted at base;
// walPath its journal, segmentPath the file of one segment.
func manifestPath(base string) string { return base + ".manifest" }

func walPath(base string) string { return base + ".wal" }

func segmentPath(base string, seq uint64) string {
	return fmt.Sprintf("%s.%06d.seg", base, seq)
}

// encodeManifest renders m and returns the bytes plus the trailing crc.
func encodeManifest(m *manifest) ([]byte, uint32) {
	var buf bytes.Buffer
	buf.Write(manMagic[:])
	buf.WriteByte(manVersion)
	putUvarint(&buf, uint64(m.pr.P))
	putUvarint(&buf, uint64(m.pr.Q))
	putUvarint(&buf, m.nextSeq)
	putUvarint(&buf, uint64(len(m.segs)))
	var crcBuf [4]byte
	for _, s := range m.segs {
		putUvarint(&buf, s.seq)
		binary.BigEndian.PutUint32(crcBuf[:], s.crc)
		buf.Write(crcBuf[:])
	}
	putUvarint(&buf, uint64(len(m.obsolete)))
	for _, seq := range m.obsolete {
		putUvarint(&buf, seq)
	}
	crc := crc32.ChecksumIEEE(buf.Bytes())
	binary.BigEndian.PutUint32(crcBuf[:], crc)
	buf.Write(crcBuf[:])
	return buf.Bytes(), crc
}

// writeManifestFile atomically replaces the manifest at path and returns
// its content crc and whether the rename happened: an error before the
// rename leaves the old manifest fully intact, an error after it means
// the live segment set has already advanced durably.
func writeManifestFile(fsys fsio.FS, path string, m *manifest) (crc uint32, renamed bool, err error) {
	data, crc := encodeManifest(m)
	dir := dirOf(path)
	tmp, err := fsys.CreateTemp(dir, ".pqgram-*")
	if err != nil {
		return 0, false, err
	}
	tmpName := tmp.Name()
	closed := false
	defer func() {
		if !closed {
			// Failure-path cleanup: the write already returned its error
			// and the temp file is about to be removed.
			tmp.Close() //pqlint:allow errcheck-durability failure-path cleanup of a doomed temp file
		}
		// Best effort; after a successful rename the name is gone already.
		fsys.Remove(tmpName) //pqlint:allow errcheck-durability best-effort removal; after rename the name no longer exists
	}()
	if _, err := tmp.Write(data); err != nil {
		return 0, false, err
	}
	if err := tmp.Sync(); err != nil {
		return 0, false, err
	}
	closed = true
	if err := tmp.Close(); err != nil {
		return 0, false, err
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		return 0, false, err
	}
	if err := fsio.SyncDir(fsys, dir); err != nil {
		return crc, true, err
	}
	return crc, true, nil
}

// loadManifestFile reads and verifies the manifest at path, returning it
// with its content crc.
func loadManifestFile(fsys fsio.FS, path string) (*manifest, uint32, error) {
	fh, err := fsio.Open(fsys, path)
	if err != nil {
		return nil, 0, err
	}
	m, crc, err := parseManifest(bufio.NewReader(fh))
	if cerr := fh.Close(); err == nil && cerr != nil {
		return nil, 0, cerr
	}
	if err != nil {
		return nil, 0, fmt.Errorf("store: manifest %s: %w", path, err)
	}
	return m, crc, nil
}

func parseManifest(r *bufio.Reader) (*manifest, uint32, error) {
	cr := &crcReader{r: r, h: crc32.NewIEEE()}
	var hdr [5]byte
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("reading header: %w", err)
	}
	if [4]byte(hdr[:4]) != manMagic {
		return nil, 0, fmt.Errorf("bad magic %q", hdr[:4])
	}
	if hdr[4] != manVersion {
		return nil, 0, fmt.Errorf("unsupported version %d", hdr[4])
	}
	p, err := getUvarint(cr, maxParam)
	if err != nil {
		return nil, 0, fmt.Errorf("reading p: %w", err)
	}
	q, err := getUvarint(cr, maxParam)
	if err != nil {
		return nil, 0, fmt.Errorf("reading q: %w", err)
	}
	m := &manifest{pr: profile.Params{P: int(p), Q: int(q)}}
	if err := m.pr.Validate(); err != nil {
		return nil, 0, err
	}
	if m.nextSeq, err = getUvarint(cr, 1<<62); err != nil {
		return nil, 0, fmt.Errorf("reading nextSeq: %w", err)
	}
	numSegs, err := getUvarint(cr, 1<<20)
	if err != nil {
		return nil, 0, fmt.Errorf("reading segment count: %w", err)
	}
	var crcBuf [4]byte
	for i := uint64(0); i < numSegs; i++ {
		seq, err := getUvarint(cr, 1<<62)
		if err != nil {
			return nil, 0, fmt.Errorf("segment %d: reading seq: %w", i, err)
		}
		if i > 0 && seq <= m.segs[i-1].seq {
			return nil, 0, fmt.Errorf("segment seqs not ascending at %d", seq)
		}
		if seq >= m.nextSeq {
			return nil, 0, fmt.Errorf("segment seq %d not below nextSeq %d", seq, m.nextSeq)
		}
		if _, err := io.ReadFull(cr, crcBuf[:]); err != nil {
			return nil, 0, fmt.Errorf("segment %d: reading crc: %w", i, err)
		}
		m.segs = append(m.segs, manifestSeg{seq: seq, crc: binary.BigEndian.Uint32(crcBuf[:])})
	}
	numObs, err := getUvarint(cr, 1<<20)
	if err != nil {
		return nil, 0, fmt.Errorf("reading obsolete count: %w", err)
	}
	for i := uint64(0); i < numObs; i++ {
		seq, err := getUvarint(cr, 1<<62)
		if err != nil {
			return nil, 0, fmt.Errorf("obsolete %d: reading seq: %w", i, err)
		}
		if i > 0 && seq <= m.obsolete[i-1] {
			return nil, 0, fmt.Errorf("obsolete seqs not ascending at %d", seq)
		}
		m.obsolete = append(m.obsolete, seq)
	}
	want := cr.h.Sum32()
	if _, err := io.ReadFull(cr.r, crcBuf[:]); err != nil {
		return nil, 0, fmt.Errorf("reading checksum: %w", err)
	}
	if got := binary.BigEndian.Uint32(crcBuf[:]); got != want {
		return nil, 0, fmt.Errorf("checksum mismatch: file %08x, computed %08x", got, want)
	}
	// Anything after the checksum is corruption, not padding.
	if _, err := cr.r.ReadByte(); err != io.EOF {
		return nil, 0, fmt.Errorf("trailing bytes after checksum")
	}
	return m, want, nil
}
