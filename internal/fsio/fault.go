package fsio

import (
	"os"
	"sync"
	"syscall"
)

// Convenient aliases for the errors a disk actually produces.
var (
	ErrNoSpace = syscall.ENOSPC
	ErrIO      = syscall.EIO
)

// FaultFS wraps another FS and injects deterministic failures. Mutating
// operations (create, write, truncate, sync, rename, remove, dir sync)
// are numbered 1, 2, 3, … in issue order; a rule can fail the Nth one
// with a chosen error, or turn the Nth write into a short write that
// persists only a prefix of its bytes before failing. Read-only
// operations (Read, ReadAt, Seek, Stat) pass straight through and are
// never failed — the point is to break the write path and
// prove recovery, not to break reading the evidence.
//
// FaultFS is safe for concurrent use if the inner FS is.
type FaultFS struct {
	inner FS

	mu       sync.Mutex
	ops      int64 // mutating operations issued so far
	failOp   int64 // fail the op with this number (0 = never)
	failErr  error
	shortOp  int64 // short-write the write with this number (0 = never)
	shortLen int   // bytes that survive of the short write
	shortErr error
	injected int64 // faults actually injected
}

// NewFaultFS wraps inner with no rules armed.
func NewFaultFS(inner FS) *FaultFS { return &FaultFS{inner: inner} }

// FailOp arms a rule: the n-th mutating operation from now on fails with
// err (counting continues from the current position; call Reset first for
// absolute numbering).
func (f *FaultFS) FailOp(n int64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failOp, f.failErr = f.ops+n, err
}

// ShortWrite arms a rule: the n-th mutating operation from now on, if it
// is a write, persists only keep bytes and then fails with err.
func (f *FaultFS) ShortWrite(n int64, keep int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shortOp, f.shortLen, f.shortErr = f.ops+n, keep, err
}

// Reset disarms all rules and restarts the operation counter.
func (f *FaultFS) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops, f.failOp, f.shortOp, f.injected = 0, 0, 0, 0
}

// Ops returns the number of mutating operations issued so far.
func (f *FaultFS) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Injected returns how many faults were actually delivered.
func (f *FaultFS) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// step numbers one mutating op and decides its fate: nil error and
// keep < 0 means proceed normally; keep >= 0 means short-write that many
// bytes then return err.
func (f *FaultFS) step() (keep int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	switch f.ops {
	case f.failOp:
		f.injected++
		return -1, f.failErr
	case f.shortOp:
		f.injected++
		return f.shortLen, f.shortErr
	}
	return -1, nil
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if flag&(os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_RDWR) != 0 {
		if _, err := f.step(); err != nil {
			return nil, err
		}
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if _, err := f.step(); err != nil {
		return nil, err
	}
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if _, err := f.step(); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if _, err := f.step(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) Stat(name string) (os.FileInfo, error) { return f.inner.Stat(name) }

func (f *FaultFS) OpenDir(name string) (Dir, error) {
	d, err := f.inner.OpenDir(name)
	if err != nil {
		return nil, err
	}
	return &faultDir{Dir: d, fs: f}, nil
}

type faultFile struct {
	File
	fs *FaultFS
}

func (f *faultFile) Write(p []byte) (int, error) {
	keep, err := f.fs.step()
	if err != nil {
		if keep < 0 {
			return 0, err
		}
		if keep > len(p) {
			keep = len(p)
		}
		n, werr := f.File.Write(p[:keep])
		if werr != nil {
			return n, werr
		}
		return n, err
	}
	return f.File.Write(p)
}

func (f *faultFile) Truncate(size int64) error {
	if _, err := f.fs.step(); err != nil {
		return err
	}
	return f.File.Truncate(size)
}

func (f *faultFile) Sync() error {
	if _, err := f.fs.step(); err != nil {
		return err
	}
	return f.File.Sync()
}

type faultDir struct {
	Dir
	fs *FaultFS
}

func (d *faultDir) Sync() error {
	if _, err := d.fs.step(); err != nil {
		return err
	}
	return d.Dir.Sync()
}
