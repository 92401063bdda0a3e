// The system under test as a child process: build the unmodified
// cmd/pqserve, start it on a free loopback port, wait until it answers,
// scrape its counters, and make sure it never outlives the benchmark.

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles cmd/pqserve into out. moduleDir is the benchmark's
// own module directory, whose go.mod resolves the pqgram module.
func buildServer(moduleDir, out string) error {
	cmd := exec.Command("go", "build", "-o", out, serverPackage)
	cmd.Dir = moduleDir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %v\n%s", serverPackage, err, msg)
	}
	return nil
}

// children is every live child, so that a signal or a panic can kill
// them all before the process exits.
var children struct {
	sync.Mutex
	live map[*child]bool
}

type child struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	stderr  *os.File
	readyMS float64
	exited  chan struct{}  // closed once the process has been reaped
	reaper  sync.WaitGroup // the goroutine that reaps it
	killed  sync.Once
}

// freePort asks the kernel for an unused loopback port. The port is
// released before the child binds it; a collision in between is possible
// in principle and shows up as the child failing to become ready.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer starts bin and returns once GET /stats answers 200. The
// child's stderr is appended to stderrPath.
func startServer(bin string, args []string, stderrPath string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(stderrPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	c := &child{base: "http://" + addr, stderr: logf}
	c.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	c.cmd.Stdout = logf
	c.cmd.Stderr = logf
	setDeathSignal(c.cmd)
	t0 := time.Now()
	if err := c.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	c.exited = make(chan struct{})
	c.reaper.Add(1)
	go func() {
		defer c.reaper.Done()
		c.cmd.Wait()
		close(c.exited)
	}()
	children.Lock()
	if children.live == nil {
		children.live = make(map[*child]bool)
	}
	children.live[c] = true
	children.Unlock()

	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for time.Since(t0) < 30*time.Second {
		resp, err := probe.Get(c.base + "/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.readyMS = float64(time.Since(t0).Nanoseconds()) / 1e6
				return c, nil
			}
		}
		if !c.alive() {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.kill()
	return nil, fmt.Errorf("%s did not answer GET /stats on %s; its output is in %s", bin, addr, stderrPath)
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// alive reports whether the process has not exited yet.
func (c *child) alive() bool {
	select {
	case <-c.exited:
		return false
	default:
		return true
	}
}

// kill sends SIGKILL — pqserve has no other way to stop, and the
// durability check wants exactly this — and waits for the process to end.
func (c *child) kill() {
	c.killed.Do(func() {
		c.cmd.Process.Kill()
		c.reaper.Wait()
		c.stderr.Close()
		children.Lock()
		delete(children.live, c)
		children.Unlock()
	})
}

func killAllChildren() {
	children.Lock()
	var all []*child
	for c := range children.live {
		all = append(all, c)
	}
	children.Unlock()
	for _, c := range all {
		c.kill()
	}
}

// killChildrenOnSignal makes SIGINT and SIGTERM kill the children before
// the benchmark exits. The returned stop function ends the watcher.
func killChildrenOnSignal() (stop func()) {
	sig := make(chan os.Signal, 1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-sig:
			killAllChildren()
			os.Exit(130)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(sig)
		close(done)
		wg.Wait()
	}
}

// --- scraping -----------------------------------------------------------

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape is the child's counters and gauges (GET /debug/metrics) and the
// Go runtime's cumulative allocation figures (GET /debug/vars).
type scrape struct {
	counters map[string]float64
	mallocs  float64
	allocB   float64
	numGC    float64
}

func (c *child) scrape() (scrape, error) {
	var snap struct {
		Counters map[string]float64 `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := getJSON(c.base+"/debug/metrics", &snap); err != nil {
		return scrape{}, err
	}
	var vars struct {
		Memstats struct {
			Mallocs    float64
			TotalAlloc float64
			NumGC      float64
		} `json:"memstats"`
	}
	if err := getJSON(c.base+"/debug/vars", &vars); err != nil {
		return scrape{}, err
	}
	s := scrape{counters: snap.Counters, mallocs: vars.Memstats.Mallocs,
		allocB: vars.Memstats.TotalAlloc, numGC: vars.Memstats.NumGC}
	if s.counters == nil {
		s.counters = make(map[string]float64)
	}
	for k, v := range snap.Gauges {
		s.counters[k] = v
	}
	return s, nil
}

// docCount is the number of indexed documents GET /stats reports.
func (c *child) docCount() (int, error) {
	var st struct {
		Docs int `json:"docs"`
	}
	err := getJSON(c.base+"/stats", &st)
	return st.Docs, err
}

// peakRSSMB is the child's VmHWM, its peak resident set, in MB.
func (c *child) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", c.pid())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
