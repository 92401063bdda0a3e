// Package fsio abstracts the filesystem operations the persistence layer
// depends on, so durability code can be exercised against deterministic
// failure models instead of only the happy path the real OS provides.
//
// Two implementations ship with the package:
//
//   - OS: a passthrough to the os package — what production code uses.
//   - MemFS: an in-memory filesystem that records a byte-exact trace of
//     every mutation and can materialize the state the disk would hold if
//     power were cut at any point of that trace (including mid-write, for
//     torn appends). FaultFS wraps any FS and injects deterministic
//     errors: fail the Nth operation with ENOSPC/EIO, or turn a write
//     into a short write.
//
// The interface is intentionally small: exactly the operations the store
// needs (sequential and positioned file I/O, atomic rename, fsync of
// files and directories). Crash-consistency arguments are easier to audit
// when the set of primitives is this narrow.
package fsio

import (
	"io"
	"os"
)

// FS is the filesystem surface the persistence layer is written against.
type FS interface {
	// OpenFile opens name with os.OpenFile flag semantics (O_RDONLY,
	// O_RDWR, O_CREATE, O_TRUNC, O_EXCL, O_APPEND).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp creates a new unique file in dir, replacing the last "*"
	// of pattern, as os.CreateTemp does.
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// Stat reports file metadata.
	Stat(name string) (os.FileInfo, error)
	// OpenDir opens a directory handle so its entries can be fsynced —
	// required after rename for the new directory entry to be durable.
	OpenDir(name string) (Dir, error)
}

// File is an open file handle. ReadAt is the positioned read: it neither
// uses nor moves the Seek offset, so concurrent readers of one immutable
// file need no lock around it.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Seeker
	io.Closer
	Truncate(size int64) error
	Sync() error
	Stat() (os.FileInfo, error)
	Name() string
}

// Dir is an open directory handle, used only to fsync the directory.
type Dir interface {
	Sync() error
	Close() error
}

// Open opens name read-only.
func Open(fsys FS, name string) (File, error) {
	return fsys.OpenFile(name, os.O_RDONLY, 0)
}

// ReadFile reads the whole file, like os.ReadFile. A Close error is
// reported even after a successful read: on the durability paths this
// package serves, a failing handle is a signal the caller must see.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := Open(fsys, name)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return data, nil
}

// WriteFile replaces name with data, like os.WriteFile.
func WriteFile(fsys FS, name string, data []byte, perm os.FileMode) error {
	f, err := fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SyncDir fsyncs the directory entry list of dir, making renames and
// creates within it durable. Filesystems that do not support syncing
// directories surface their own error; callers on the crash-consistency
// path must not ignore it.
func SyncDir(fsys FS, dir string) error {
	d, err := fsys.OpenDir(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
