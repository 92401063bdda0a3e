// The encodings the store's files share, each written once: the atomic
// file replace, the checksummed stream, the `magic | version | p | q`
// header, the length-prefixed id and the sorted delta-encoded bag.
// STORAGE.md ("Conventions") specifies them; the export format
// (store.go), segments (segment.go) and the manifest (manifest.go) are
// built from them, and the journal (wal.go) from the id and the varints.
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"path/filepath"

	"pqgram/internal/fsio"
	"pqgram/internal/profile"
)

const (
	// maxParam bounds p and q in files to reject corrupt headers early.
	maxParam = 64
	// maxIDLen bounds a stored document id.
	maxIDLen = 1 << 20
	// maxHint caps the allocation a count read from a file may size
	// ahead of the data behind it: the count is untrusted until that data
	// has actually been read, and a corrupt one must not exhaust memory.
	maxHint = 1 << 16
)

// replaceFile atomically replaces path with what write produces: a
// temporary file in the same directory is written, fsynced, renamed over
// path, and the directory entry is fsynced. A crash at any point leaves
// either the complete old file or the complete new one. renamed reports
// whether the rename happened: an error before it leaves the old file
// intact, an error after it (the directory sync) means the new file may
// already be the durable one.
func replaceFile(fsys fsio.FS, path string, write func(io.Writer) error) (renamed bool, err error) {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, ".pqgram-*")
	if err != nil {
		return false, err
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
	if err := write(tmp); err != nil {
		return false, err
	}
	// The data must be durable before the rename: otherwise a crash could
	// persist the new directory entry pointing at unwritten content.
	if err := tmp.Sync(); err != nil {
		return false, err
	}
	closed = true
	if err := tmp.Close(); err != nil {
		return false, err
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		return false, err
	}
	// And the rename itself must be durable: fsync the directory entry.
	return true, fsio.SyncDir(fsys, dir)
}

// countingCRCWriter buffers a write stream and checksums and counts
// everything written through it, so a writer learns its section offsets
// as it emits them. The first error sticks: later writes are dropped and
// finish reports it.
type countingCRCWriter struct {
	w       *bufio.Writer
	h       hash.Hash32
	n       int64
	err     error
	scratch [binary.MaxVarintLen64]byte // putUvarint's encoding buffer
}

func newCRCWriter(w io.Writer) *countingCRCWriter {
	return &countingCRCWriter{w: bufio.NewWriter(w), h: crc32.NewIEEE()}
}

func (c *countingCRCWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.h.Write(p[:n])
	c.n += int64(n)
	c.err = err
	return n, err
}

// finish appends the checksum of everything written so far (4 bytes BE)
// and then trailer, neither of them checksummed, flushes the stream and
// returns the checksum.
func (c *countingCRCWriter) finish(trailer []byte) (uint32, error) {
	if c.err != nil {
		return 0, c.err
	}
	sum := c.h.Sum32()
	if _, err := c.w.Write(append(binary.BigEndian.AppendUint32(nil, sum), trailer...)); err != nil {
		return 0, err
	}
	return sum, c.w.Flush()
}

// countingCRCReader is the read-side twin: a buffered stream that
// checksums and counts everything read through it.
type countingCRCReader struct {
	r *bufio.Reader
	h hash.Hash32
	n int64
}

func newCRCReader(r io.Reader, size int) *countingCRCReader {
	return &countingCRCReader{r: bufio.NewReaderSize(r, size), h: crc32.NewIEEE()}
}

func (c *countingCRCReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.h.Write(p[:n])
	c.n += int64(n)
	return n, err
}

// ReadByte lets binary.ReadUvarint consume single bytes through the crc.
func (c *countingCRCReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.h.Write([]byte{b})
		c.n++
	}
	return b, err
}

// verify reads the checksum finish wrote after the checksummed bytes and
// returns it if it matches what was read.
func (c *countingCRCReader) verify() (uint32, error) {
	want := c.h.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(c.r, sum[:]); err != nil {
		return 0, fmt.Errorf("reading checksum: %w", err)
	}
	if got := binary.BigEndian.Uint32(sum[:]); got != want {
		return 0, fmt.Errorf("checksum mismatch: file %08x, computed %08x", got, want)
	}
	return want, nil
}

// writeHeader writes the header the export, segment and manifest files
// open with: magic | version byte | p | q.
func writeHeader(w *countingCRCWriter, magic [4]byte, version byte, pr profile.Params) {
	w.Write(magic[:])
	w.Write([]byte{version})
	putUvarint(w, uint64(pr.P))
	putUvarint(w, uint64(pr.Q))
}

// readHeader reads a header written by writeHeader and returns its
// parameters once they are valid.
func readHeader(r *countingCRCReader, magic [4]byte, version byte) (profile.Params, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return profile.Params{}, fmt.Errorf("reading header: %w", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return profile.Params{}, fmt.Errorf("bad magic %q", hdr[:4])
	}
	if hdr[4] != version {
		return profile.Params{}, fmt.Errorf("unsupported version %d", hdr[4])
	}
	p, err := getUvarint(r, maxParam)
	if err != nil {
		return profile.Params{}, fmt.Errorf("reading p: %w", err)
	}
	q, err := getUvarint(r, maxParam)
	if err != nil {
		return profile.Params{}, fmt.Errorf("reading q: %w", err)
	}
	pr := profile.Params{P: int(p), Q: int(q)}
	return pr, pr.Validate()
}

// byteReader is what the field readers consume: a countingCRCReader or a
// bytes.Reader over a record or region already in memory.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// writeID writes a document id: idLen | id bytes.
func writeID(w io.Writer, id string) {
	putUvarint(w, uint64(len(id)))
	io.WriteString(w, id)
}

// readID reads an id written by writeID.
func readID(r byteReader) (string, error) {
	n, err := getUvarint(r, maxIDLen)
	if err != nil {
		return "", fmt.Errorf("reading id length: %w", err)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("reading id: %w", err)
	}
	return string(buf), nil
}

// writeSortedBag writes a bag as its entries only, in the bag's own
// ascending order: Distinct() × ( tuple delta | cnt ), the first delta
// from zero. The caller records the entry count where its format keeps
// it.
func writeSortedBag(w io.Writer, bag profile.Bag) {
	prev := profile.LabelTuple(0)
	for i := 0; i < bag.Distinct(); i++ {
		lt, c := bag.At(i)
		putUvarint(w, uint64(lt-prev))
		prev = lt
		putUvarint(w, uint64(c))
	}
}

// readSortedBag reads n entries written by writeSortedBag straight into
// a Bag. A tuple that does not ascend (a duplicate, or a delta that wraps
// around) and a zero count are corruption.
func readSortedBag(r io.ByteReader, n uint64) (profile.Bag, error) {
	tuples := make([]profile.LabelTuple, 0, min(n, maxHint))
	counts := make([]uint32, 0, min(n, maxHint))
	prev := uint64(0)
	for j := uint64(0); j < n; j++ {
		delta, err := binary.ReadUvarint(r)
		if err != nil {
			return profile.Bag{}, fmt.Errorf("reading tuple %d: %w", j, err)
		}
		prev += delta
		cnt, err := getUvarint(r, math.MaxUint32)
		if err != nil {
			return profile.Bag{}, fmt.Errorf("reading count %d: %w", j, err)
		}
		tuples = append(tuples, profile.LabelTuple(prev))
		counts = append(counts, uint32(cnt))
	}
	// A delta of zero repeats a tuple and one that wraps around goes
	// below its predecessor: SortedBag rejects both, and zero counts.
	return profile.SortedBag(tuples, counts)
}

// putUvarint writes v as a uvarint. The two writers the encoders use
// take it without an allocation: a bytes.Buffer appends into its own
// spare capacity, a countingCRCWriter encodes into its scratch array. A
// local array passed to an io.Writer escapes, one allocation per varint.
func putUvarint(w io.Writer, v uint64) {
	switch w := w.(type) {
	case *bytes.Buffer:
		w.Grow(binary.MaxVarintLen64)
		w.Write(binary.AppendUvarint(w.AvailableBuffer(), v))
	case *countingCRCWriter:
		n := binary.PutUvarint(w.scratch[:], v)
		w.Write(w.scratch[:n])
	default:
		w.Write(binary.AppendUvarint(nil, v))
	}
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return max(1, (bits.Len64(v)+6)/7) }

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
