package fsio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"
)

func TestMemFSBasics(t *testing.T) {
	m := NewMemFS()
	if _, err := m.OpenFile("missing", os.O_RDONLY, 0); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("open missing: %v", err)
	}
	f, err := m.OpenFile("a", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(6, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf, err := io.ReadAll(f)
	if err != nil || string(buf) != "world" {
		t.Fatalf("read back %q, %v", buf, err)
	}
	if err := f.Truncate(5); err != nil {
		t.Fatal(err)
	}
	fi, err := m.Stat("a")
	if err != nil || fi.Size() != 5 {
		t.Fatalf("stat after truncate: %v, %v", fi, err)
	}
	if _, err := m.OpenFile("a", os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644); !errors.Is(err, os.ErrExist) {
		t.Fatalf("O_EXCL on existing: %v", err)
	}
	// O_TRUNC empties the file.
	g, err := m.OpenFile("a", os.O_WRONLY|os.O_TRUNC, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fi, _ := g.Stat(); fi.Size() != 0 {
		t.Fatalf("O_TRUNC left %d bytes", fi.Size())
	}
	// Write through a read-only handle is refused.
	r, _ := Open(m, "a")
	if _, err := r.Write([]byte("x")); !errors.Is(err, os.ErrPermission) {
		t.Fatalf("write via O_RDONLY: %v", err)
	}
	for _, h := range []File{f, g, r} {
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if m.OpenHandles() != 0 {
		t.Fatalf("%d handles leaked", m.OpenHandles())
	}
	if err := f.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

func TestMemFSRenameKeepsOrphanNode(t *testing.T) {
	m := NewMemFS()
	WriteFile(m, "old", []byte("victim"), 0o644)
	h, err := m.OpenFile("old", os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	WriteFile(m, "new", []byte("replacement"), 0o644)
	if err := m.Rename("new", "old"); err != nil {
		t.Fatal(err)
	}
	// The handle still points at the orphaned node, like a POSIX fd.
	if _, err := h.Write([]byte("X")); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(m, "old")
	if err != nil || string(got) != "replacement" {
		t.Fatalf("renamed content = %q, %v", got, err)
	}
	if _, err := m.Rename("gone", "x"), m.Remove("gone"); err == nil {
		t.Fatal("remove of missing file accepted")
	}
}

func TestMemFSCreateTempUnique(t *testing.T) {
	m := NewMemFS()
	a, err := m.CreateTemp(".", ".tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.CreateTemp(".", ".tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() == b.Name() {
		t.Fatalf("CreateTemp reused name %q", a.Name())
	}
	a.Close()
	b.Close()
}

// TestCrashCloneBoundaries replays a tiny atomic-replace protocol and
// checks that every cut yields either the old or the new content.
func TestCrashCloneBoundaries(t *testing.T) {
	m := NewMemFS()
	if err := WriteFile(m, "f", []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp, err := m.CreateTemp(".", ".t-*")
	if err != nil {
		t.Fatal(err)
	}
	tmp.Write([]byte("newer"))
	tmp.Sync()
	tmp.Close()
	if err := m.Rename(tmp.Name(), "f"); err != nil {
		t.Fatal(err)
	}
	SyncDir(m, ".")

	sawOld, sawNew := false, false
	for cut := 0; cut <= m.TraceLen(); cut++ {
		c := m.CrashClone(cut, 0)
		got, err := ReadFile(c, "f")
		if errors.Is(err, os.ErrNotExist) {
			continue // cut before the file was first created
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		switch string(got) {
		case "", "old": // before or during the initial WriteFile
			if sawNew {
				t.Fatalf("cut %d: state went backwards to %q", cut, got)
			}
			sawOld = sawOld || string(got) == "old"
		case "newer":
			sawNew = true
		default:
			t.Fatalf("cut %d: hybrid content %q", cut, got)
		}
	}
	if !sawOld || !sawNew {
		t.Fatalf("coverage hole: old=%v new=%v", sawOld, sawNew)
	}
}

func TestCrashCloneTornWrite(t *testing.T) {
	m := NewMemFS()
	f, err := m.OpenFile("j", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("aaaa"))
	f.Write([]byte("bbbb"))
	f.Close()
	trace := m.Trace()
	// Find the second write and tear it after 2 bytes.
	var writeIdx []int
	for i, op := range trace {
		if op.Kind == OpWrite {
			writeIdx = append(writeIdx, i)
		}
	}
	if len(writeIdx) != 2 {
		t.Fatalf("expected 2 writes, trace: %v", trace)
	}
	c := m.CrashClone(writeIdx[1], 2)
	got, err := ReadFile(c, "j")
	if err != nil || string(got) != "aaaabb" {
		t.Fatalf("torn state = %q, %v", got, err)
	}
	// Partial bytes on a non-write op are ignored (ops are atomic).
	c2 := m.CrashClone(len(trace), 3)
	if got, _ := ReadFile(c2, "j"); string(got) != "aaaabbbb" {
		t.Fatalf("full state = %q", got)
	}
}

func TestFaultFSFailsNthOp(t *testing.T) {
	mem := NewMemFS()
	ff := NewFaultFS(mem)
	f, err := ff.OpenFile("x", os.O_RDWR|os.O_CREATE, 0o644) // op 1
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ff.FailOp(2, ErrNoSpace)
	if _, err := f.Write([]byte("ok")); err != nil { // op 2 (1 after arming)
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("doomed")); !errors.Is(err, ErrNoSpace) { // op 3
		t.Fatalf("want ENOSPC, got %v", err)
	}
	if _, err := f.Write([]byte("fine")); err != nil {
		t.Fatal(err)
	}
	if ff.Injected() != 1 {
		t.Fatalf("injected = %d", ff.Injected())
	}
	got, _ := ReadFile(mem, "x")
	if string(got) != "okfine" {
		t.Fatalf("content = %q", got)
	}
}

func TestFaultFSShortWrite(t *testing.T) {
	mem := NewMemFS()
	ff := NewFaultFS(mem)
	f, err := ff.OpenFile("x", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ff.ShortWrite(1, 3, ErrIO)
	n, err := f.Write([]byte("abcdef"))
	if n != 3 || !errors.Is(err, ErrIO) {
		t.Fatalf("short write: n=%d err=%v", n, err)
	}
	got, _ := ReadFile(mem, "x")
	if string(got) != "abc" {
		t.Fatalf("content = %q", got)
	}
}

// TestOSPassthrough exercises the production implementation against a real
// temp dir: same protocol as the MemFS tests, so the two stay in sync.
func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFile(OS, dir+"/f", []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp, err := OS.CreateTemp(dir, ".t-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write([]byte("newer")); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := OS.Rename(tmp.Name(), dir+"/f"); err != nil {
		t.Fatal(err)
	}
	if err := SyncDir(OS, dir); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(OS, dir+"/f")
	if err != nil || !bytes.Equal(got, []byte("newer")) {
		t.Fatalf("read back %q, %v", got, err)
	}
	if _, err := OS.Stat(dir + "/f"); err != nil {
		t.Fatal(err)
	}
	if err := OS.Remove(dir + "/f"); err != nil {
		t.Fatal(err)
	}
}

// TestReadAt: the positioned read of every implementation reads at its
// offset without moving the handle's, reports a short read with io.EOF,
// and FaultFS passes it through uncounted even with a fault armed.
func TestReadAt(t *testing.T) {
	mem := NewMemFS()
	ff := NewFaultFS(mem)
	dir := t.TempDir()
	for name, fsys := range map[string]FS{"mem": mem, "fault": ff, "os": OS} {
		path := "f-" + name
		if fsys == OS {
			path = dir + "/f"
		}
		if err := WriteFile(fsys, path, []byte("hello world"), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := Open(fsys, path)
		if err != nil {
			t.Fatal(err)
		}
		ff.Reset()
		ff.FailOp(1, ErrIO)
		buf := make([]byte, 5)
		if n, err := f.ReadAt(buf, 6); err != nil || n != 5 || string(buf) != "world" {
			t.Fatalf("%s: ReadAt(6) = %d %q, %v", name, n, buf[:n], err)
		}
		if n, err := f.ReadAt(buf, 8); !errors.Is(err, io.EOF) || n != 3 || string(buf[:n]) != "rld" {
			t.Fatalf("%s: short ReadAt = %d %q, %v; want 3 bytes and EOF", name, n, buf[:n], err)
		}
		if rest, err := io.ReadAll(f); err != nil || string(rest) != "hello world" {
			t.Fatalf("%s: ReadAt moved the read offset: %q, %v", name, rest, err)
		}
		if ff.Ops() != 0 {
			t.Fatalf("%s: reads counted as %d mutating ops", name, ff.Ops())
		}
		ff.Reset()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ReadAt(buf, 0); err == nil {
			t.Fatalf("%s: ReadAt after Close succeeded", name)
		}
	}
}
