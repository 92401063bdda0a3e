package fsio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// OpKind identifies one kind of mutating filesystem operation in a trace.
type OpKind int

const (
	OpCreate   OpKind = iota // a file node came into existence at Path
	OpWrite                  // Data written to Node at Off
	OpTruncate               // Node truncated to Size
	OpSync                   // fsync of Node (a durability barrier marker)
	OpRename                 // directory entry Path atomically renamed to Path2
	OpRemove                 // directory entry Path removed
	OpDirSync                // fsync of directory Path
)

func (k OpKind) String() string {
	switch k {
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpTruncate:
		return "truncate"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpDirSync:
		return "dirsync"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// TraceOp is one recorded mutation. Writes and truncates reference file
// nodes (not paths) so that writes through a handle whose path was
// renamed or unlinked replay correctly.
type TraceOp struct {
	Kind  OpKind
	Node  int    // file node id (Create/Write/Truncate/Sync)
	Path  string // Create/Rename(old)/Remove/DirSync/Sync
	Path2 string // Rename(new)
	Off   int64  // Write
	Data  []byte // Write (a private copy; treat as read-only)
	Size  int64  // Truncate
}

// memNode is the content of one file, independent of its directory entry:
// an open handle keeps writing to its node even after the path is renamed
// over or removed, exactly like a POSIX fd.
type memNode struct {
	id   int
	data []byte
}

// MemFS is an in-memory filesystem that records every mutation since its
// creation. The trace is the ground truth of "what reached the disk, in
// what order": CrashClone materializes the state as of any prefix of it,
// optionally tearing the final write at a byte offset — a deterministic
// power-cut simulator.
//
// The model is an ordered filesystem: operations become durable in the
// order they were issued, and a power cut loses a suffix of them (plus
// the tail of one torn write). Sync operations are recorded as barrier
// markers; they never reorder anything because nothing is ever reordered.
// This makes "everything synced survives" hold by construction, while
// still exercising torn appends, partial compactions and interrupted
// renames — the failure modes the store's recovery logic must handle.
type MemFS struct {
	mu       sync.Mutex
	files    map[string]*memNode
	base     map[string]*memNode // state at "boot" (trace start); CrashClone replays on top of it
	nextNode int
	nextTemp int
	open     int
	trace    []TraceOp
}

// NewMemFS creates an empty in-memory filesystem with trace recording on.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memNode), base: make(map[string]*memNode)}
}

// snapshotNodes deep-copies a file map, preserving node ids so trace ops
// recorded against those ids keep resolving after the copy.
func snapshotNodes(files map[string]*memNode) map[string]*memNode {
	byID := make(map[int]*memNode)
	out := make(map[string]*memNode, len(files))
	for name, n := range files {
		c, ok := byID[n.id]
		if !ok {
			c = &memNode{id: n.id, data: append([]byte(nil), n.data...)}
			byID[n.id] = c
		}
		out[name] = c
	}
	return out
}

// clean normalizes the path spellings the store produces ("./x" vs "x").
func clean(name string) string {
	for strings.HasPrefix(name, "./") {
		name = name[2:]
	}
	return name
}

func (m *MemFS) record(op TraceOp) { m.trace = append(m.trace, op) }

// OpenFile implements os.OpenFile flag semantics over the in-memory tree.
func (m *MemFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.files[name]
	switch {
	case !ok && flag&os.O_CREATE == 0:
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	case ok && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrExist}
	case !ok:
		n = &memNode{id: m.nextNode}
		m.nextNode++
		m.files[name] = n
		m.record(TraceOp{Kind: OpCreate, Node: n.id, Path: name})
	}
	if flag&os.O_TRUNC != 0 && len(n.data) > 0 {
		n.data = n.data[:0]
		m.record(TraceOp{Kind: OpTruncate, Node: n.id})
	}
	m.open++
	f := &memFile{fs: m, node: n, name: name}
	switch flag & (os.O_RDONLY | os.O_WRONLY | os.O_RDWR) {
	case os.O_WRONLY:
		f.writable = true
	case os.O_RDWR:
		f.readable, f.writable = true, true
	default:
		f.readable = true
	}
	f.append = flag&os.O_APPEND != 0
	return f, nil
}

// CreateTemp creates a uniquely named file; names are deterministic
// (a counter replaces the trailing "*") so crash tests are reproducible.
func (m *MemFS) CreateTemp(dir, pattern string) (File, error) {
	m.mu.Lock()
	seq := m.nextTemp
	m.nextTemp++
	m.mu.Unlock()
	name := strings.Replace(pattern, "*", fmt.Sprintf("%08d", seq), 1)
	if !strings.Contains(pattern, "*") {
		name = pattern + fmt.Sprintf("%08d", seq)
	}
	return m.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
}

// Rename atomically repoints newpath at oldpath's node. A node that was
// renamed over stays alive for any open handles but loses its entry.
func (m *MemFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = clean(oldpath), clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.files[oldpath]
	if !ok {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: os.ErrNotExist}
	}
	m.files[newpath] = n
	delete(m.files, oldpath)
	m.record(TraceOp{Kind: OpRename, Path: oldpath, Path2: newpath})
	return nil
}

// Remove unlinks a file.
func (m *MemFS) Remove(name string) error {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(m.files, name)
	m.record(TraceOp{Kind: OpRemove, Path: name})
	return nil
}

// Stat reports the current size of a file.
func (m *MemFS) Stat(name string) (os.FileInfo, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.files[name]
	if !ok {
		return nil, &os.PathError{Op: "stat", Path: name, Err: os.ErrNotExist}
	}
	return memInfo{name: name, size: int64(len(n.data))}, nil
}

// OpenDir returns a directory barrier handle. Directories are implicit in
// MemFS (any prefix is a directory); the sync is recorded as a trace op.
func (m *MemFS) OpenDir(name string) (Dir, error) {
	return &memDir{fs: m, name: clean(name)}, nil
}

// OpenHandles returns the number of files currently open — the store's
// tests use it to prove error paths do not leak descriptors.
func (m *MemFS) OpenHandles() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.open
}

// Paths returns the sorted names of all linked files.
func (m *MemFS) Paths() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.files))
	for name := range m.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TraceLen returns the number of mutations recorded so far.
func (m *MemFS) TraceLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.trace)
}

// Trace returns the recorded mutations. The returned slice is a copy but
// shares Data buffers; callers must treat them as read-only.
func (m *MemFS) Trace() []TraceOp {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]TraceOp, len(m.trace))
	copy(out, m.trace)
	return out
}

// CrashClone materializes the filesystem as it would be found after a
// power cut: starting from the state this filesystem booted with, trace
// operations [0, ops) are fully applied, and if partialBytes > 0 and
// operation `ops` is a write, its first partialBytes bytes are applied too
// (a torn write). Every later operation — including any sync the dying
// process never reached — is lost. The clone starts with a fresh trace of
// its own, so recovery runs can themselves be crash-tested (a clone of a
// clone replays the second trace on top of the first clone's boot state).
func (m *MemFS) CrashClone(ops int, partialBytes int) *MemFS {
	m.mu.Lock()
	trace := m.trace
	if ops > len(trace) {
		ops = len(trace)
	}
	prefix := trace[:ops]
	var torn *TraceOp
	if partialBytes > 0 && ops < len(trace) && trace[ops].Kind == OpWrite {
		t := trace[ops]
		torn = &t
	}
	base := snapshotNodes(m.base)
	m.mu.Unlock()

	clone := NewMemFS()
	clone.files = base
	nodes := make(map[int]*memNode)
	for _, n := range base {
		nodes[n.id] = n
		if n.id >= clone.nextNode {
			clone.nextNode = n.id + 1
		}
	}
	apply := func(op TraceOp, limit int) {
		switch op.Kind {
		case OpCreate:
			n := &memNode{id: op.Node}
			nodes[op.Node] = n
			clone.files[op.Path] = n
			if op.Node >= clone.nextNode {
				clone.nextNode = op.Node + 1
			}
		case OpWrite:
			n := nodes[op.Node]
			if n == nil {
				return
			}
			data := op.Data
			if limit >= 0 && limit < len(data) {
				data = data[:limit]
			}
			end := op.Off + int64(len(data))
			if int64(len(n.data)) < end {
				n.data = append(n.data, make([]byte, end-int64(len(n.data)))...)
			}
			copy(n.data[op.Off:end], data)
		case OpTruncate:
			n := nodes[op.Node]
			if n == nil {
				return
			}
			if op.Size < int64(len(n.data)) {
				n.data = n.data[:op.Size]
			} else {
				n.data = append(n.data, make([]byte, op.Size-int64(len(n.data)))...)
			}
		case OpRename:
			if n, ok := clone.files[op.Path]; ok {
				clone.files[op.Path2] = n
				delete(clone.files, op.Path)
			}
		case OpRemove:
			delete(clone.files, op.Path)
		case OpSync, OpDirSync:
			// Barriers carry no state in the ordered model.
		}
	}
	for _, op := range prefix {
		apply(op, -1)
	}
	if torn != nil {
		apply(*torn, partialBytes)
	}
	// The clone's own history starts now; the replayed ops are not part
	// of its trace (they happened before "boot"). Its boot state is the
	// materialized one, so a second-level CrashClone starts from here.
	clone.trace = nil
	clone.base = snapshotNodes(clone.files)
	clone.nextTemp = m.nextTemp
	return clone
}

// --- file and dir handles -------------------------------------------------

type memFile struct {
	fs       *MemFS
	node     *memNode
	name     string
	pos      int64
	readable bool
	writable bool
	append   bool
	closed   bool
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, os.ErrClosed
	}
	if !f.readable {
		return 0, &os.PathError{Op: "read", Path: f.name, Err: os.ErrPermission}
	}
	if f.pos >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[f.pos:])
	f.pos += int64(n)
	return n, nil
}

// ReadAt reads at off without touching the handle's offset, with
// os.File's contract: fewer than len(p) bytes come with an error.
func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, os.ErrClosed
	}
	if !f.readable {
		return 0, &os.PathError{Op: "read", Path: f.name, Err: os.ErrPermission}
	}
	if off < 0 {
		return 0, &os.PathError{Op: "readat", Path: f.name, Err: fmt.Errorf("negative offset")}
	}
	if off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, os.ErrClosed
	}
	if !f.writable {
		return 0, &os.PathError{Op: "write", Path: f.name, Err: os.ErrPermission}
	}
	if f.append {
		f.pos = int64(len(f.node.data))
	}
	end := f.pos + int64(len(p))
	if int64(len(f.node.data)) < end {
		f.node.data = append(f.node.data, make([]byte, end-int64(len(f.node.data)))...)
	}
	copy(f.node.data[f.pos:end], p)
	f.fs.record(TraceOp{Kind: OpWrite, Node: f.node.id, Off: f.pos, Data: append([]byte(nil), p...)})
	f.pos = end
	return len(p), nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, os.ErrClosed
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		base = int64(len(f.node.data))
	default:
		return 0, fmt.Errorf("fsio: bad whence %d", whence)
	}
	if base+offset < 0 {
		return 0, fmt.Errorf("fsio: negative seek")
	}
	f.pos = base + offset
	return f.pos, nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	if !f.writable {
		return &os.PathError{Op: "truncate", Path: f.name, Err: os.ErrPermission}
	}
	if size < int64(len(f.node.data)) {
		f.node.data = f.node.data[:size]
	} else {
		f.node.data = append(f.node.data, make([]byte, size-int64(len(f.node.data)))...)
	}
	f.fs.record(TraceOp{Kind: OpTruncate, Node: f.node.id, Size: size})
	return nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	f.fs.record(TraceOp{Kind: OpSync, Node: f.node.id, Path: f.name})
	return nil
}

func (f *memFile) Stat() (os.FileInfo, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return nil, os.ErrClosed
	}
	return memInfo{name: f.name, size: int64(len(f.node.data))}, nil
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	f.closed = true
	f.fs.open--
	return nil
}

type memDir struct {
	fs   *MemFS
	name string
}

func (d *memDir) Sync() error {
	d.fs.mu.Lock()
	defer d.fs.mu.Unlock()
	d.fs.record(TraceOp{Kind: OpDirSync, Path: d.name})
	return nil
}

func (d *memDir) Close() error { return nil }

type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() os.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }
