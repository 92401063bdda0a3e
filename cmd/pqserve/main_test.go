package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"pqgram/internal/forest"
	"pqgram/internal/profile"
	"pqgram/internal/store"
)

// server is one pqserve child process under test.
type server struct {
	t      *testing.T
	cmd    *exec.Cmd
	base   string
	stderr *bytes.Buffer
	exited chan error // receives cmd.Wait's result once
}

// start launches the binary and waits until it answers /stats.
func start(t *testing.T, bin string, args ...string) *server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	s := &server{t: t, base: "http://" + addr, stderr: new(bytes.Buffer), exited: make(chan error, 1)}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stderr = s.stderr
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { s.exited <- s.cmd.Wait() }()
	t.Cleanup(func() { s.cmd.Process.Kill() })
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if resp, err := http.Get(s.base + "/stats"); err == nil {
			resp.Body.Close()
			return s
		}
		select {
		case err := <-s.exited:
			t.Fatalf("pqserve exited before serving: %v\n%s", err, s.stderr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("pqserve not serving on %s after 5s\n%s", addr, s.stderr)
		}
	}
}

// stop signals the child and returns its exit code.
func (s *server) stop(sig syscall.Signal) int {
	s.t.Helper()
	if err := s.cmd.Process.Signal(sig); err != nil {
		s.t.Fatal(err)
	}
	select {
	case <-s.exited:
		return s.cmd.ProcessState.ExitCode()
	case <-time.After(8 * time.Second):
		s.t.Fatalf("pqserve still running 8s after %v\n%s", sig, s.stderr)
		return -1
	}
}

func (s *server) put(id, xml string) {
	s.t.Helper()
	req, err := http.NewRequest(http.MethodPut, s.base+"/docs/"+id, strings.NewReader(xml))
	if err != nil {
		s.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		s.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.t.Fatalf("PUT %s: %s", id, resp.Status)
	}
}

func (s *server) docs() int {
	s.t.Helper()
	resp, err := http.Get(s.base + "/stats")
	if err != nil {
		s.t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Docs int `json:"docs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		s.t.Fatal(err)
	}
	return stats.Docs
}

// build compiles the pqserve binary into a directory of the test's own
// and returns both; under -short the test is skipped instead.
func build(t *testing.T) (dir, bin string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the pqserve binary")
	}
	dir = t.TempDir()
	bin = filepath.Join(dir, "pqserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir, bin
}

// TestServeStopsCleanlyAndRecovers drives the real binary through its
// process-level contract: SIGTERM is a clean exit 0 that loses nothing,
// kill -9 loses nothing that was acknowledged (-sync) and the restart
// says how much it replayed, and an index of the removed snapshot engine
// or the removed -plan flag is refused by name instead of being served
// with something else.
func TestServeStopsCleanlyAndRecovers(t *testing.T) {
	dir, bin := build(t)
	idx := filepath.Join(dir, "idx")

	s := start(t, bin, "-index", idx, "-sync")
	for i := 0; i < 3; i++ {
		s.put(fmt.Sprintf("doc-%d", i), fmt.Sprintf("<r><a>%d</a><b/></r>", i))
	}
	if code := s.stop(syscall.SIGTERM); code != 0 {
		t.Fatalf("exit code %d after SIGTERM, want 0\n%s", code, s.stderr)
	}

	s = start(t, bin, "-index", idx, "-sync")
	if n := s.docs(); n != 3 {
		t.Fatalf("%d docs after a clean restart, want 3", n)
	}
	s.put("doc-3", "<r><c/></r>")
	if code := s.stop(syscall.SIGKILL); code == 0 {
		t.Fatal("kill -9 reported exit code 0")
	}

	s = start(t, bin, "-index", idx, "-sync")
	if n := s.docs(); n != 4 {
		t.Fatalf("%d docs after kill -9, want 4", n)
	}
	if code := s.stop(syscall.SIGINT); code != 0 {
		t.Fatalf("exit code %d after SIGINT, want 0\n%s", code, s.stderr)
	}
	// Read the log only now: the child's stderr is complete once it exited.
	m := regexp.MustCompile(`msg="index opened".* replayed_records=(\d+)`).FindSubmatch(s.stderr.Bytes())
	if m == nil {
		t.Fatalf("no \"index opened\" line with replayed_records in the log:\n%s", s.stderr)
	}
	if n, _ := strconv.Atoi(string(m[1])); n == 0 {
		t.Fatalf("restart after kill -9 replayed no journal records:\n%s", s.stderr)
	}

	legacy := filepath.Join(dir, "old.pqg")
	if err := store.SaveFile(legacy, forest.New(profile.Default)); err != nil {
		t.Fatal(err)
	}
	for _, refused := range []struct {
		args []string
		want string // what stderr must say
		code int    // the exit code
	}{
		{[]string{"-index", legacy}, `legacy "PQGI" snapshot`, 1},
		{[]string{"-plan", "auto"}, "flag provided but not defined: -plan", 2},
	} {
		// Killed by the context if it wrongly starts serving.
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		var stderr bytes.Buffer
		cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, refused.args...)...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		timedOut := ctx.Err() != nil
		cancel()
		if err == nil || timedOut {
			t.Fatalf("pqserve %v was not refused (%v):\n%s", refused.args, err, &stderr)
		}
		if !strings.Contains(stderr.String(), refused.want) {
			t.Fatalf("pqserve %v: stderr lacks %q:\n%s", refused.args, refused.want, &stderr)
		}
		if code := cmd.ProcessState.ExitCode(); code != refused.code {
			t.Fatalf("pqserve %v exited %d, want %d", refused.args, code, refused.code)
		}
	}
}

// TestServeBoundsHeaderReads: a client that opens a connection and never
// finishes its request line is hung up on after readHeaderWait.
func TestServeBoundsHeaderReads(t *testing.T) {
	_, bin := build(t)
	assertHungUp(t, start(t, bin), "GET /sta", readHeaderWait)
}

// TestServeBoundsBodyReads: a client that sends complete headers
// announcing a 100-byte body and then only one byte of it is hung up on
// after readWait.
func TestServeBoundsBodyReads(t *testing.T) {
	_, bin := build(t)
	assertHungUp(t, start(t, bin),
		"POST /lookup HTTP/1.1\r\nHost: pqserve\r\nContent-Length: 100\r\n\r\n{", readWait)
}

// assertHungUp sends partial to the server and requires the server to
// close the connection after bound (give or take a second) and within
// bound + 3 s.
func assertHungUp(t *testing.T, s *server, partial string, bound time.Duration) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(s.base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	began := time.Now()
	if _, err := conn.Write([]byte(partial)); err != nil {
		t.Fatal(err)
	}
	const slack = 3 * time.Second
	conn.SetReadDeadline(began.Add(bound + slack))
	// The server may answer (408, or 400 for the unreadable body) before
	// closing; either way the read ends with the connection closed by the
	// peer, not with our own deadline.
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection still open %v after %q: %v", time.Since(began), partial, err)
	}
	if took := time.Since(began); took < bound-time.Second {
		t.Fatalf("connection closed after %v, before the %v bound", took, bound)
	}
}
