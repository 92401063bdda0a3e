// One end-to-end run of one workload: start the child, load the corpus,
// warm up, measure a window, check the answers. An untraced run does this
// on several fresh server processes in turn and reports the median of
// each metric over them, which steadies set-up time and takes the luck of
// one process's heap layout out of the latencies.

package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// instances is how many fresh server processes an untraced run measures;
// --seconds is divided evenly among their windows.
const instances = 3

type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	scale   float64
	pqserve string // path of the built server binary
	dataDir string // scratch directory for indexes; emptied per instance
	outDir  string // results, trace and the child's stderr
}

// metric is one reported number. N is the sample count behind it where
// that means something (latency percentiles); Note says why a metric
// that does not apply to the workload reads 0.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func (m metricSet) setN(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// instance is everything one server process yielded.
type instance struct {
	setupS    float64
	readyMS   float64
	window    *tally
	elapsed   time.Duration
	rssMB     float64
	before    scrape
	after     scrape
	diskBytes int64
	liveBytes int
	other     tally // requests outside the window: load, warm-up, verification
}

// outcome is a finished run: the numbers plus the verdict on correctness.
type outcome struct {
	Workload    string    `json:"workload"`
	Seed        int64     `json:"seed"`
	Seconds     float64   `json:"seconds"`
	Scale       float64   `json:"scale"`
	Trace       bool      `json:"trace"`
	InputsSHA   string    `json:"inputs_sha256"`
	Correct     bool      `json:"correct"`
	Attempted   int       `json:"attempted"`
	Failed      int       `json:"failed"`
	Metrics     metricSet `json:"metrics"`
	Diagnostics metricSet `json:"diagnostics,omitempty"` // printed, not gated
	Notes       []string  `json:"notes,omitempty"`
	Env         envInfo   `json:"env"`
}

// runInstance takes one fresh server through set-up and one window. On
// a workload with a durability check, readBackAfter says whether this process
// is the one that is read back, killed and read back again; one process
// of a run is enough to show that acknowledged writes survive.
func runInstance(cfg runConfig, in *inputs, static *oracle, window time.Duration, n int, readBackAfter bool) (*instance, error) {
	w := cfg.w
	dir := filepath.Join(cfg.dataDir, fmt.Sprintf("%s-%d", w.name, n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	stderrPath := filepath.Join(cfg.outDir, w.name+".pqserve.stderr")
	inst := &instance{}

	start := func() (*child, error) {
		return startServer(cfg.pqserve, w.serverArgs(dir, cfg.scale), stderrPath)
	}

	t0 := time.Now()
	srv, err := start()
	if err != nil {
		return nil, err
	}
	defer func() { srv.kill() }()
	inst.readyMS = srv.readyMS

	// Load the corpus over the same HTTP surface a user would.
	var load phase
	for i, d := range in.corpus {
		load.seqs[i%numClients] = append(load.seqs[i%numClients],
			op{kind: opPut, method: "PUT", path: "/docs/" + d.id, body: d.xml, id: d.id, xml: d.xml})
	}
	t, _ := load.run(srv.base)
	inst.other.merge(t)
	if w.restart {
		srv.kill()
		if srv, err = start(); err != nil {
			return nil, err
		}
	}
	t, _ = phase{seqs: in.warm}.run(srv.base)
	inst.other.merge(t)
	inst.setupS = time.Since(t0).Seconds()

	if inst.before, err = srv.scrape(); err != nil {
		return nil, err
	}
	inst.window, inst.elapsed = phase{seqs: in.measure, cyclic: in.cyclic, window: window}.run(srv.base)
	if inst.after, err = srv.scrape(); err != nil {
		return nil, err
	}
	if inst.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}

	// Correctness, after the clock has stopped. On a static corpus every
	// kept reply must equal the oracle's answer. Under writes the oracle
	// catches up first, and the whole corpus is read back, before and
	// after a kill -9.
	or := static
	if w.verifyDurability {
		or = static.clone()
		for _, a := range inst.window.acked {
			if err := or.apply(a); err != nil {
				return nil, err
			}
		}
	} else {
		for _, r := range inst.window.sampled {
			inst.other.attempted++
			if err := or.checkAgainst(r.op, r.matches); err != nil {
				inst.other.fail(r.op, err)
			}
		}
	}
	inst.liveBytes = or.liveBytes()
	if w.durable {
		if inst.diskBytes, err = dirBytes(dir); err != nil {
			return nil, err
		}
	}
	if w.verifyDurability && readBackAfter {
		written := make(map[string]bool)
		for _, a := range inst.window.acked {
			written[a.id] = true
		}
		if err := readBack(srv, in, or, written, &inst.other); err != nil {
			return nil, err
		}
		srv.kill()
		if srv, err = start(); err != nil {
			return nil, err
		}
		if err := readBack(srv, in, or, written, &inst.other); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// readBack checks that the server holds the oracle's documents: the same
// count; every document written in the window, and one in untouchedEvery
// of the others, found at distance 0 by a lookup of its own content; a
// sample of those lookups equal to the oracle's full answer; and no
// deleted document returned by a wide lookup of its original content.
func readBack(srv *child, in *inputs, or *oracle, written map[string]bool, t *tally) error {
	const untouchedEvery = 8
	docs, err := srv.docCount()
	if err != nil {
		return err
	}
	t.attempted++
	if docs != len(or.docs) {
		t.fail(&op{method: "GET", path: "/stats"}, fmt.Errorf("%d documents indexed, oracle has %d", docs, len(or.docs)))
	}
	ids := make([]string, 0, len(or.content))
	for id := range or.content {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var p phase
	n := 0
	for i, id := range ids {
		if !written[id] && i%untouchedEvery != 0 {
			continue
		}
		rb := lookupOp(string(or.content[id]), selfTau)
		rb.selfID = id
		p.seqs[n%numClients] = append(p.seqs[n%numClients], rb)
		n++
	}
	got, _ := p.run(srv.base)
	got.acked = nil
	sampled := got.sampled
	got.sampled = nil
	t.merge(got)
	for _, r := range sampled {
		t.attempted++
		if err := or.checkAgainst(r.op, r.matches); err != nil {
			t.fail(r.op, err)
		}
	}
	// Deleted documents: probe with the corpus original, which a
	// resurrected copy (a few edits away) would match closely.
	gone := phase{keepAll: true}
	n = 0
	for _, d := range in.corpus {
		if _, live := or.docs[d.id]; !live {
			gone.seqs[n%numClients] = append(gone.seqs[n%numClients], lookupOp(string(d.xml), 0.9))
			n++
		}
	}
	tg, _ := gone.run(srv.base)
	for _, r := range tg.sampled {
		for _, m := range r.matches {
			if _, live := or.docs[m.TreeID]; !live {
				tg.fail(r.op, fmt.Errorf("deleted document %s returned", m.TreeID))
			}
		}
	}
	tg.sampled, tg.acked = nil, nil
	t.merge(tg)
	return nil
}

// --- metrics from one instance ---------------------------------------------

func (inst *instance) delta(name string) (float64, bool) {
	a, ok := inst.after.counters[name]
	if !ok {
		return 0, false
	}
	return a - inst.before.counters[name], true
}

// ratio is Δnum/Δden over the window; ok is false when a counter is
// missing (renamed by a later change) or the denominator did not move.
func (inst *instance) ratio(num, den string) (float64, bool) {
	n, ok1 := inst.delta(num)
	d, ok2 := inst.delta(den)
	if !ok1 || !ok2 || d == 0 {
		return 0, false
	}
	return n / d, true
}

// endToEnd computes the gated metrics of one instance.
func endToEnd(w *workload, inst *instance) map[string]float64 {
	lat := sortedCopy(inst.window.latencies(w.gated))
	ops := inst.window.attempted - inst.window.failed
	return map[string]float64{
		"op_p50_ms":   percentile(lat, 50),
		"op_p95_ms":   percentile(lat, 95),
		"ops_per_s":   float64(ops) / inst.elapsed.Seconds(),
		"rss_peak_mb": inst.rssMB,
		"setup_s":     inst.setupS,
	}
}

// runUntraced is the --trace 0 run.
func runUntraced(cfg runConfig, in *inputs, static *oracle) (*outcome, error) {
	out := newOutcome(cfg, in, false)
	window := time.Duration(cfg.seconds / instances * float64(time.Second))
	per := make(map[string][]float64)
	gatedN := 0
	for n := 0; n < instances; n++ {
		inst, err := runInstance(cfg, in, static, window, n, n == instances-1)
		if err != nil {
			return nil, err
		}
		out.count(inst)
		for name, v := range endToEnd(cfg.w, inst) {
			per[name] = append(per[name], v)
		}
		gatedN += len(inst.window.latencies(cfg.w.gated))
		if n == instances-1 {
			for name, m := range clientDiagnostics(inst) {
				out.Diagnostics[name] = m
			}
		}
	}
	for _, d := range endToEndMetrics {
		name := d.name
		m := metric{Value: median(per[name]), Unit: d.unit}
		if name == "op_p50_ms" || name == "op_p95_ms" {
			m.N = gatedN / instances
		}
		if math.IsNaN(m.Value) || m.Value <= 0 {
			out.Correct = false
			out.Notes = append(out.Notes, fmt.Sprintf("%s has no value: the window produced no gated samples", name))
		}
		out.Metrics[name] = m
	}
	if n := gatedN / instances; !supported(n, 95) {
		out.Notes = append(out.Notes, fmt.Sprintf("op_p95_ms rests on %d samples per process: fewer than ten lie beyond it", n))
	}
	return out, nil
}

func newOutcome(cfg runConfig, in *inputs, trace bool) *outcome {
	return &outcome{
		Workload: cfg.w.name, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Trace: trace,
		InputsSHA: in.sha256, Correct: true, Metrics: metricSet{}, Diagnostics: metricSet{}, Env: environment(cfg.dataDir),
	}
}

// count adds an instance's requests and failures to the run's totals.
func (o *outcome) count(inst *instance) {
	for _, t := range []*tally{inst.window, &inst.other} {
		o.Attempted += t.attempted
		o.Failed += t.failed
		for _, n := range t.errNotes {
			if len(o.Notes) < maxErrNotes {
				o.Notes = append(o.Notes, n)
			}
		}
	}
	if o.Failed > 0 {
		o.Correct = false
	}
}

// clientDiagnostics are latency figures seen from the client that are
// worth printing but too scheduler-bound on a small machine to gate.
func clientDiagnostics(inst *instance) metricSet {
	m := metricSet{}
	look := sortedCopy(inst.window.latencies(isLookup))
	if len(look) > 0 {
		m.setN("pqserve.lookup_p50_ms", percentile(look, 50), "ms", len(look))
		m.setN("pqserve.lookup_p99_ms", percentile(look, 99), "ms", len(look))
		m.setN("pqserve.lookup_max_ms", look[len(look)-1], "ms", len(look))
	}
	wr := sortedCopy(inst.window.latencies(opKind.isWrite))
	if len(wr) > 0 {
		m.setN("pqserve.write_p50_ms", percentile(wr, 50), "ms", len(wr))
		m.setN("pqserve.write_p99_ms", percentile(wr, 99), "ms", len(wr))
		// The foreground stall a flush imposes, which a median hides: the
		// mean of the F slowest writes, F being the flushes in the window.
		if f, ok := inst.delta("store_segment_flushes"); ok && f >= 1 && int(f) <= len(wr) {
			m.setN("pqserve.write_stall_ms", mean(wr[len(wr)-int(f):]), "ms", int(f))
		}
	}
	m.set("pqserve.ready_ms", inst.readyMS, "ms")
	return m
}
