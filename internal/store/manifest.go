// The manifest of a segmented store: the single small file that says
// which segments are live. Everything else about the segmented store's
// durable state derives from it — segment files not named by the current
// manifest do not exist as far as recovery is concerned, and the
// journal's header binds to the manifest's content checksum.
// The manifest is replaced atomically (replaceFile), so a crash anywhere leaves either the complete old manifest or
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
	"encoding/binary"
	"fmt"
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

// writeManifestFile atomically replaces the manifest at path and returns
// its content crc and whether the rename happened: an error before the
// rename leaves the old manifest fully intact, an error after it means
// the live segment set has already advanced durably.
func writeManifestFile(fsys fsio.FS, path string, m *manifest) (crc uint32, renamed bool, err error) {
	renamed, err = replaceFile(fsys, path, func(w io.Writer) error {
		cw := newCRCWriter(w)
		writeHeader(cw, manMagic, manVersion, m.pr)
		putUvarint(cw, m.nextSeq)
		putUvarint(cw, uint64(len(m.segs)))
		for _, s := range m.segs {
			putUvarint(cw, s.seq)
			cw.Write(binary.BigEndian.AppendUint32(nil, s.crc))
		}
		putUvarint(cw, uint64(len(m.obsolete)))
		for _, seq := range m.obsolete {
			putUvarint(cw, seq)
		}
		crc, err = cw.finish(nil)
		return err
	})
	return crc, renamed, err
}

// loadManifestFile reads and verifies the manifest at path, returning it
// with its content crc.
func loadManifestFile(fsys fsio.FS, path string) (*manifest, uint32, error) {
	fh, err := fsio.Open(fsys, path)
	if err != nil {
		return nil, 0, err
	}
	m, crc, err := parseManifest(fh)
	if cerr := fh.Close(); err == nil && cerr != nil {
		return nil, 0, cerr
	}
	if err != nil {
		return nil, 0, fmt.Errorf("store: manifest %s: %w", path, err)
	}
	return m, crc, nil
}

func parseManifest(r io.Reader) (*manifest, uint32, error) {
	cr := newCRCReader(r, 4096)
	pr, err := readHeader(cr, manMagic, manVersion)
	if err != nil {
		return nil, 0, err
	}
	m := &manifest{pr: pr}
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
	want, err := cr.verify()
	if err != nil {
		return nil, 0, err
	}
	// Anything after the checksum is corruption, not padding.
	if _, err := cr.r.ReadByte(); err != io.EOF {
		return nil, 0, fmt.Errorf("trailing bytes after checksum")
	}
	return m, want, nil
}
