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
	"fmt"
	"io"

	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/profile"
)

var magic = [4]byte{'P', 'Q', 'G', 'I'}

const version = 1

// Save writes the forest index to w. Concurrent incremental updates are
// tolerated per tree (each bag is serialized under its read lock), but the
// snapshot is only cross-tree consistent if no Add/Remove/Update runs
// during Save — a quiescent forest is the caller's responsibility, as with
// any backup.
func Save(w io.Writer, f *forest.Index) error {
	cw := newCRCWriter(w)
	writeHeader(cw, magic, version, f.Params())
	putUvarint(cw, uint64(f.Len()))
	// ForEachTree walks the sharded index in ascending ID order and hands
	// out each frozen bag, already in the order the format wants; the
	// forest read-locks each bag for the duration of the callback.
	err := f.ForEachTree(func(id string, bag profile.Bag) error {
		writeID(cw, id)
		putUvarint(cw, uint64(bag.Distinct()))
		writeSortedBag(cw, bag)
		return cw.err
	})
	if err != nil {
		return err
	}
	_, err = cw.finish(nil)
	return err
}

// Load reads a forest index written by Save.
func Load(r io.Reader) (*forest.Index, error) {
	cr := newCRCReader(r, 4096)
	pr, err := readHeader(cr, magic, version)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	f := forest.New(pr)
	numTrees, err := getUvarint(cr, 1<<40)
	if err != nil {
		return nil, fmt.Errorf("store: reading tree count: %w", err)
	}
	for i := uint64(0); i < numTrees; i++ {
		id, err := readID(cr)
		if err != nil {
			return nil, fmt.Errorf("store: tree %d: %w", i, err)
		}
		numTuples, err := getUvarint(cr, 1<<50)
		if err != nil {
			return nil, fmt.Errorf("store: tree %q: reading tuple count: %w", id, err)
		}
		bag, err := readSortedBag(cr, numTuples)
		if err != nil {
			return nil, fmt.Errorf("store: tree %q: %w", id, err)
		}
		if err := f.AddIndex(id, bag); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	if _, err := cr.verify(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return f, nil
}

// SaveFile writes the index to a file, replacing it atomically via a
// temporary file in the same directory.
func SaveFile(path string, f *forest.Index) error {
	return SaveFileFS(fsio.OS, path, f)
}

// SaveFileFS is SaveFile against an injected filesystem. The replacement
// is all-or-nothing (replaceFile): a crash at any point leaves either the
// complete old file or the complete new one.
func SaveFileFS(fsys fsio.FS, path string, f *forest.Index) error {
	_, err := replaceFile(fsys, path, func(w io.Writer) error { return Save(w, f) })
	return err
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
