// A counting filesystem: wraps the FS the store is written against and
// counts the operations that reach it. With one client and no timers the
// counts repeat exactly from run to run, so they compare two versions of
// the store without any clock. They say nothing about a device: reads are
// served by the operating system's page cache here.

package main

import "os"

// fsCounts is the device-level work since the wrapper was created.
type fsCounts struct {
	Writes, WriteBytes int64
	Reads, ReadBytes   int64
	Syncs              int64 // file and directory fsyncs
	Opens, Renames     int64
	Removes            int64
}

func (c fsCounts) add(o fsCounts) fsCounts {
	return fsCounts{
		Writes: c.Writes + o.Writes, WriteBytes: c.WriteBytes + o.WriteBytes,
		Reads: c.Reads + o.Reads, ReadBytes: c.ReadBytes + o.ReadBytes,
		Syncs: c.Syncs + o.Syncs, Opens: c.Opens + o.Opens,
		Renames: c.Renames + o.Renames, Removes: c.Removes + o.Removes,
	}
}

func (c fsCounts) sub(o fsCounts) fsCounts {
	return fsCounts{
		Writes: c.Writes - o.Writes, WriteBytes: c.WriteBytes - o.WriteBytes,
		Reads: c.Reads - o.Reads, ReadBytes: c.ReadBytes - o.ReadBytes,
		Syncs: c.Syncs - o.Syncs, Opens: c.Opens - o.Opens,
		Renames: c.Renames - o.Renames, Removes: c.Removes - o.Removes,
	}
}

// countingFS is used from one goroutine at a time (the traced run is
// single-threaded), so plain fields suffice.
type countingFS struct {
	inner FS
	n     fsCounts
}

func newCountingFS(inner FS) *countingFS { return &countingFS{inner: inner} }

func (c *countingFS) counts() fsCounts { return c.n }

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	c.n.Opens++
	return &countingFile{File: f, n: &c.n}, nil
}

func (c *countingFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := c.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	c.n.Opens++
	return &countingFile{File: f, n: &c.n}, nil
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	c.n.Renames++
	return c.inner.Rename(oldpath, newpath)
}

func (c *countingFS) Remove(name string) error {
	c.n.Removes++
	return c.inner.Remove(name)
}

func (c *countingFS) Stat(name string) (os.FileInfo, error) { return c.inner.Stat(name) }

func (c *countingFS) OpenDir(name string) (Dir, error) {
	d, err := c.inner.OpenDir(name)
	if err != nil {
		return nil, err
	}
	return &countingDir{Dir: d, n: &c.n}, nil
}

type countingFile struct {
	File
	n *fsCounts
}

func (f *countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.n.Reads++
	f.n.ReadBytes += int64(n)
	return n, err
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Writes++
	f.n.WriteBytes += int64(n)
	return n, err
}

func (f *countingFile) Sync() error {
	f.n.Syncs++
	return f.File.Sync()
}

type countingDir struct {
	Dir
	n *fsCounts
}

func (d *countingDir) Sync() error {
	d.n.Syncs++
	return d.Dir.Sync()
}
