// The export format: one compact, checksummed file holding a whole
// index ("PQGI"), for backups and for moving an index between processes.
// The store itself (segstore.go) never reads or writes it. The format is
// deterministic (trees and tuples are sorted), so the serialized size is
// a stable measure for the index-size experiment (Figure 14, left) and
// two indexes hold the same content exactly when their bytes are equal.
//
// Layout (all integers are unsigned varints unless noted):
//
//	magic "PQGI" | version byte | p | q | numTrees
//	numTrees × ( idLen | id bytes | numTuples |
//	             numTuples × ( tuple fingerprint delta (varint) | cnt ) )
//	crc32-IEEE of everything above (4 bytes big endian)
//
// Tuples are 64-bit fingerprints (profile.LabelTuple); within a tree they
// are written in ascending order and delta-encoded, which keeps the stored
// index well below the size of the document it indexes.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"sort"

	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/profile"
)

var magic = [4]byte{'P', 'Q', 'G', 'I'}

const version = 1

// maxParam bounds p and q in files to reject corrupt headers early.
const maxParam = 64

// Save writes the forest index to w. Concurrent incremental updates are
// tolerated per tree (each bag is serialized under its read lock), but the
// snapshot is only cross-tree consistent if no Add/Remove/Update runs
// during Save — a quiescent forest is the caller's responsibility, as with
// any backup.
func Save(w io.Writer, f *forest.Index) error {
	cw := &crcWriter{w: bufio.NewWriter(w), h: crc32.NewIEEE()}
	if _, err := cw.Write(magic[:]); err != nil {
		return err
	}
	if _, err := cw.Write([]byte{version}); err != nil {
		return err
	}
	pr := f.Params()
	putUvarint(cw, uint64(pr.P))
	putUvarint(cw, uint64(pr.Q))
	putUvarint(cw, uint64(f.Len()))
	// ForEachTree walks the sharded index in ascending ID order without
	// copying the per-tree bags; the forest read-locks each bag for the
	// duration of the callback.
	var tuples []uint64
	err := f.ForEachTree(func(id string, idx profile.Index) error {
		putUvarint(cw, uint64(len(id)))
		if _, err := io.WriteString(cw, id); err != nil {
			return err
		}
		tuples = tuples[:0]
		for lt := range idx {
			tuples = append(tuples, uint64(lt))
		}
		sort.Slice(tuples, func(i, j int) bool { return tuples[i] < tuples[j] })
		putUvarint(cw, uint64(len(tuples)))
		prev := uint64(0)
		for _, lt := range tuples {
			putUvarint(cw, lt-prev)
			prev = lt
			putUvarint(cw, uint64(idx[profile.LabelTuple(lt)]))
		}
		return nil
	})
	if err != nil {
		return err
	}
	if cw.err != nil {
		return cw.err
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], cw.h.Sum32())
	if _, err := cw.w.Write(sum[:]); err != nil {
		return err
	}
	return cw.w.Flush()
}

// Load reads a forest index written by Save.
func Load(r io.Reader) (*forest.Index, error) {
	cr := &crcReader{r: bufio.NewReader(r), h: crc32.NewIEEE()}
	var hdr [5]byte
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return nil, fmt.Errorf("store: reading header: %w", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, fmt.Errorf("store: bad magic %q", hdr[:4])
	}
	if hdr[4] != version {
		return nil, fmt.Errorf("store: unsupported version %d", hdr[4])
	}
	p, err := getUvarint(cr, maxParam)
	if err != nil {
		return nil, fmt.Errorf("store: reading p: %w", err)
	}
	q, err := getUvarint(cr, maxParam)
	if err != nil {
		return nil, fmt.Errorf("store: reading q: %w", err)
	}
	pr := profile.Params{P: int(p), Q: int(q)}
	if err := pr.Validate(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	f := forest.New(pr)
	numTrees, err := getUvarint(cr, 1<<40)
	if err != nil {
		return nil, fmt.Errorf("store: reading tree count: %w", err)
	}
	for i := uint64(0); i < numTrees; i++ {
		idLen, err := getUvarint(cr, 1<<20)
		if err != nil {
			return nil, fmt.Errorf("store: tree %d: reading id length: %w", i, err)
		}
		idBuf := make([]byte, idLen)
		if _, err := io.ReadFull(cr, idBuf); err != nil {
			return nil, fmt.Errorf("store: tree %d: reading id: %w", i, err)
		}
		numTuples, err := getUvarint(cr, 1<<50)
		if err != nil {
			return nil, fmt.Errorf("store: tree %q: reading tuple count: %w", idBuf, err)
		}
		// The declared count is untrusted until the data is actually read:
		// cap the allocation hint so a corrupt header cannot exhaust memory.
		hint := numTuples
		if hint > 1<<16 {
			hint = 1 << 16
		}
		idx := make(profile.Index, hint)
		prev := uint64(0)
		for j := uint64(0); j < numTuples; j++ {
			delta, err := binary.ReadUvarint(cr)
			if err != nil {
				return nil, fmt.Errorf("store: tree %q: reading tuple %d: %w", idBuf, j, err)
			}
			if j > 0 && delta == 0 {
				return nil, fmt.Errorf("store: tree %q: duplicate tuple %d", idBuf, j)
			}
			prev += delta
			cnt, err := getUvarint(cr, 1<<50)
			if err != nil {
				return nil, fmt.Errorf("store: tree %q: reading count %d: %w", idBuf, j, err)
			}
			if cnt == 0 {
				return nil, fmt.Errorf("store: tree %q: tuple with zero count", idBuf)
			}
			idx[profile.LabelTuple(prev)] = int(cnt)
		}
		if err := f.AddIndex(string(idBuf), idx); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	want := cr.h.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(cr.r, sum[:]); err != nil {
		return nil, fmt.Errorf("store: reading checksum: %w", err)
	}
	if got := binary.BigEndian.Uint32(sum[:]); got != want {
		return nil, fmt.Errorf("store: checksum mismatch: file %08x, computed %08x", got, want)
	}
	return f, nil
}

// SaveFile writes the index to a file, replacing it atomically via a
// temporary file in the same directory.
func SaveFile(path string, f *forest.Index) error {
	return SaveFileFS(fsio.OS, path, f)
}

// SaveFileFS is SaveFile against an injected filesystem. The replacement
// is all-or-nothing: the snapshot is written to a temporary file, fsynced,
// renamed over path, and the directory entry is fsynced — a crash at any
// point leaves either the complete old file or the complete new one.
func SaveFileFS(fsys fsio.FS, path string, f *forest.Index) error {
	dir := dirOf(path)
	tmp, err := fsys.CreateTemp(dir, ".pqgram-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	closed := false
	defer func() {
		if !closed {
			// Failure-path cleanup: the write already returned its error and
			// the temp file is about to be removed, so this close cannot
			// lose durable state.
			tmp.Close() //pqlint:allow errcheck-durability failure-path cleanup of a doomed temp file
		}
		// Best effort; after a successful rename the name is gone already.
		fsys.Remove(tmpName) //pqlint:allow errcheck-durability best-effort removal; after rename the name no longer exists
	}()
	if err := Save(tmp, f); err != nil {
		return err
	}
	// The data must be durable before the rename: otherwise a crash could
	// persist the new directory entry pointing at unwritten content.
	if err := tmp.Sync(); err != nil {
		return err
	}
	closed = true
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		return err
	}
	// And the rename itself must be durable: fsync the directory entry.
	return fsio.SyncDir(fsys, dir)
}

// LoadFile reads an index file written by SaveFile.
func LoadFile(path string) (*forest.Index, error) {
	return LoadFileFS(fsio.OS, path)
}

// LoadFileFS is LoadFile against an injected filesystem.
func LoadFileFS(fsys fsio.FS, path string) (*forest.Index, error) {
	fh, err := fsio.Open(fsys, path)
	if err != nil {
		return nil, err
	}
	f, err := Load(fh)
	if cerr := fh.Close(); err == nil && cerr != nil {
		// The snapshot was read and checksummed, but a close failing even
		// on a read-only handle signals an unhealthy device; surface it
		// rather than hand back state from hardware that is misbehaving.
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

// Size returns the number of bytes Save would write for the index.
func Size(f *forest.Index) (int64, error) {
	var cw countWriter
	if err := Save(&cw, f); err != nil {
		return 0, err
	}
	return cw.n, nil
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

type crcWriter struct {
	w   *bufio.Writer
	h   hash.Hash32
	err error
}

func (c *crcWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.h.Write(p[:n])
	c.err = err
	return n, err
}

type crcReader struct {
	r *bufio.Reader
	h hash.Hash32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.h.Write(p[:n])
	return n, err
}

// ReadByte lets binary.ReadUvarint consume single bytes through the crc.
func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.h.Write([]byte{b})
	}
	return b, err
}

func putUvarint(w io.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func getUvarint(r io.ByteReader, max uint64) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	if v > max {
		return 0, fmt.Errorf("value %d exceeds bound %d", v, max)
	}
	return v, nil
}
