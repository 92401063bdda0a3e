package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pqgram"
	"pqgram/internal/gen"
)

// build compiles the pqindex binary into a directory of the test's own
// and returns both; under -short the test is skipped instead.
func build(t *testing.T) (dir, bin string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the pqindex binary")
	}
	dir = t.TempDir()
	bin = filepath.Join(dir, "pqindex")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir, bin
}

// run executes the binary and returns its stdout, stderr and exit code.
func run(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("pqindex %v: %v", args, err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

// writeDocs writes four clusters of three near-duplicate documents as XML
// files and returns their paths.
func writeDocs(t *testing.T, dir string) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var paths []string
	for c := 0; c < 4; c++ {
		base := gen.DBLP(int64(c), 40+10*c)
		for m := 0; m < 3; m++ {
			doc, _, err := gen.Perturb(rng, base, 1+m, gen.DefaultMix)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := pqgram.WriteXML(&buf, doc); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, fmt.Sprintf("doc-%d-%d.xml", c, m))
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, path)
		}
	}
	return paths
}

// TestPQIndexSubcommands drives the offline workflow through the real
// binary — build, threshold and top-k lookup, join, verify, compact — and
// checks the join's output against the library's answer on the same store.
func TestPQIndexSubcommands(t *testing.T) {
	dir, bin := build(t)
	docs := writeDocs(t, dir)
	idx := filepath.Join(dir, "idx.pqg")
	query := docs[4]
	self := "0.0000  " + query + "\n"

	for _, tc := range []struct {
		name string
		args []string
		want string // a substring stdout must contain
	}{
		{"build", append([]string{"build", "-index", idx, "-workers", "2"}, docs...), "segments: 1"},
		{"lookup -tau", []string{"lookup", "-index", idx, "-tau", "0.5", query}, self},
		{"lookup -top", []string{"lookup", "-index", idx, "-top", "3", query}, self},
		{"join", []string{"join", "-index", idx, "-tau", "0.5"}, ""},
		{"verify", []string{"verify", "-index", idx}, fmt.Sprintf("ok: %d trees", len(docs))},
		{"compact", []string{"compact", "-index", idx}, "compacted:"},
	} {
		stdout, stderr, code := run(t, bin, tc.args...)
		if code != 0 {
			t.Fatalf("%s: exit code %d\n%s", tc.name, code, stderr)
		}
		if !strings.Contains(stdout, tc.want) {
			t.Fatalf("%s: stdout lacks %q:\n%s", tc.name, tc.want, stdout)
		}
		switch tc.name {
		case "lookup -top":
			if n := strings.Count(stdout, "\n"); n != 3 || !strings.HasPrefix(stdout, self) {
				t.Fatalf("lookup -top 3 printed %d lines, want 3 starting with the query itself:\n%s", n, stdout)
			}
		case "join":
			if got, want := stdout, libraryJoin(t, idx, 0.5); got != want {
				t.Fatalf("join output differs from SimilarityJoin:\n got %q\nwant %q", got, want)
			}
		}
	}

	// topk was lookup -top under another name; it is gone.
	_, stderr, code := run(t, bin, "topk", "-index", idx, query)
	if code == 0 || !strings.Contains(stderr, "usage: pqindex {") {
		t.Fatalf("pqindex topk: exit code %d, stderr %q; want non-zero with the usage line", code, stderr)
	}
}

// libraryJoin opens the store through the library and renders its
// similarity join the way `pqindex join` prints it.
func libraryJoin(t *testing.T, idx string, tau float64) string {
	t.Helper()
	st, err := pqgram.OpenStore(idx)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pairs := st.Forest().SimilarityJoin(tau)
	if len(pairs) == 0 {
		t.Fatal("join fixture has no pairs at tau 0.5")
	}
	var b strings.Builder
	for _, p := range pairs {
		fmt.Fprintf(&b, "%.4f  %s  %s\n", p.Distance, p.A, p.B)
	}
	return b.String()
}
