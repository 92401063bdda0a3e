// The traced run: per-layer numbers for one workload.
//
// It has two halves. First one child process is measured over a window
// like an untraced instance, which yields the counter-derived metrics
// (C) and the client-side diagnostics (L). Then the same requests are
// replayed in this process, on one goroutine, against two in-process
// replicas of the child's wiring, one after the other:
//
//	H  takes each request whole through Server.ServeHTTP (span "request");
//	S  takes the same request apart, one span per layer boundary, calling
//	   the public function the handler calls at that point.
//
// H and S are built identically and see the same operations, so they
// compute the same states; a bare in-memory forest (the twin) takes the
// same writes beside S so that a store write can be compared with the
// index work it contains. Every reply of H is compared with the oracle.
//
// The sum of S's steps is compared with H's whole: the breakdown is
// reported as valid only when what the steps leave unexplained is within
// unattributedLimit of the handler's median.

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	tracedOps         = 768 // operations of client 0 replayed, at -scale 1
	allocLoopOps      = 256 // operations in each allocation-counting loop
	overheadLoopOps   = 256 // lookups in the collector-overhead probe
	unattributedLimit = 0.15
)

type tracedRun struct {
	cfg  runConfig
	in   *inputs
	rec  *recorder
	h, s *replica
	twin *Forest
	cfs  *countingFS // under S's store; nil for in-memory workloads
	or   *oracle
	out  *outcome
	ms   metricSet

	ops        []tracedOp
	writeFS    fsCounts // filesystem work of S's store during replayed writes
	lookupFS   fsCounts // and during direct forest lookups
	lookups    int
	buf        bytes.Buffer
	respBytes  []float64 // body sizes of H's replies to reads
	editOps    int
	deltaGrams int
}

// tracedOp is the span indices of one replayed operation; query, forest,
// parse and build are set for reads only (query is -1 otherwise).
type tracedOp struct {
	op      *op
	request int
	steps   []int // the spans that together should explain request
	query   int   // serve.query
	forest  int   // forest.lookup / forest.topk
	parse   int   // xmlconv.parse of the query document
	build   int   // profile.build of the query document
	cached  bool
	nodes   int
}

func (tr *tracedRun) us(i int) float64 {
	s := tr.rec.spans[i]
	return float64(s.End-s.Start) / 1e3
}

// step times fn under a span and returns the span's index.
func (tr *tracedRun) step(name string, parent, op int, fn func()) int {
	i := tr.rec.begin(name, parent, op)
	fn()
	tr.rec.end(i)
	return i
}

func runTraced(cfg runConfig, in *inputs, static *oracle) (*outcome, error) {
	out := newOutcome(cfg, in, true)
	tr := &tracedRun{cfg: cfg, in: in, rec: newRecorder(), out: out, ms: out.Metrics, or: static.clone()}
	defer tr.cleanup()

	// Half one: the child, for counters and client-side latencies.
	window := time.Duration(cfg.seconds / instances * float64(time.Second))
	inst, err := runInstance(cfg, in, static, window, 0, true)
	if err != nil {
		return nil, err
	}
	out.count(inst)
	for name, m := range clientDiagnostics(inst) {
		tr.ms[name] = m
	}
	counterMetrics(cfg.w, inst, tr.ms)

	// Half two: the in-process replay. The replicas live one after the
	// other, so that each runs in a heap about the size of the child's:
	// the collector's pacing, and with it the cost of every allocation,
	// follows the live heap.
	if err := tr.buildTwin(); err != nil {
		return nil, err
	}
	replies, err := tr.passWhole()
	if err != nil {
		return nil, err
	}
	if err := tr.passSteps(); err != nil {
		return nil, err
	}
	tr.judgeAll(replies)
	tr.layerMetrics(inst)
	if err := tr.probes(); err != nil {
		return nil, err
	}
	if cfg.w.durable {
		if err := tr.storeLifecycle(); err != nil {
			return nil, err
		}
	}
	tr.ms.fill(perLayerMetrics)
	for name, m := range tr.ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value, m.Note = 0, "no samples"
			tr.ms[name] = m
		}
	}
	if out.Failed > 0 {
		out.Correct = false
	}
	return out, tr.rec.writeFile(filepath.Join(cfg.outDir, fmt.Sprintf("trace.%s.json", cfg.w.name)))
}

// --- building the replicas -------------------------------------------------

func (tr *tracedRun) dir(name string) string {
	return filepath.Join(tr.cfg.dataDir, "trace-"+tr.cfg.w.name+"-"+name)
}

func (tr *tracedRun) cleanup() {
	for _, r := range []*replica{tr.h, tr.s} {
		if r != nil {
			r.close()
		}
	}
	os.RemoveAll(tr.dir("H"))
	os.RemoveAll(tr.dir("S"))
}

func (tr *tracedRun) newReplica(name string, fsys FS, exists bool) (*replica, error) {
	w := tr.cfg.w
	if !w.durable {
		return newMemReplica(cacheAt(tr.cfg.scale)), nil
	}
	if !exists {
		if err := os.RemoveAll(tr.dir(name)); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(tr.dir(name), 0o755); err != nil {
			return nil, err
		}
	}
	return newSegReplica(fsys, filepath.Join(tr.dir(name), "idx"), exists, w.syncWrites, w.flushAt(tr.cfg.scale), cacheAt(tr.cfg.scale))
}

// buildTwin loads the corpus into a bare in-memory forest. The load is
// the sample behind forest.put_us and forest.heap_bytes_per_gram; the
// twin is kept only when the workload has writes for it to mirror.
func (tr *tracedRun) buildTwin() error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	twin := newBareForest()
	for _, d := range tr.in.corpus {
		t, err := parseXMLReader(bytes.NewReader(d.xml))
		if err != nil {
			return err
		}
		tr.step("forest.put", -1, -1, func() { twin.Put(d.id, t) })
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// The twin is the only thing allocated and kept between the readings.
	if n := twin.Size(); n > 0 && after.HeapAlloc > before.HeapAlloc {
		tr.ms.set("forest.heap_bytes_per_gram", float64(after.HeapAlloc-before.HeapAlloc)/float64(n), "bytes")
	}
	if tr.cfg.w.verifyDurability {
		tr.twin = twin
	}
	return nil
}

// build makes one replica in the state the child is in when its window
// opens: corpus loaded, restarted if the workload restarts. A recorded
// build (S's) yields the store.put samples.
func (tr *tracedRun) build(name string, fsys FS, record bool) (*replica, error) {
	r, err := tr.newReplica(name, fsys, false)
	if err != nil {
		return nil, err
	}
	for _, d := range tr.in.corpus {
		t, err := parseXMLReader(bytes.NewReader(d.xml))
		if err != nil {
			return nil, err
		}
		switch {
		case r.store == nil:
			r.forest.Put(d.id, t)
		case record:
			tr.step("store.put", -1, -1, func() { _, err = r.store.Put(d.id, t) })
		default:
			_, err = r.store.Put(d.id, t)
		}
		if err != nil {
			return nil, err
		}
	}
	if tr.cfg.w.restart {
		if err := r.close(); err != nil {
			return nil, err
		}
		return tr.newReplica(name, fsys, true)
	}
	return r, nil
}

// --- replay -------------------------------------------------------------

// serveWhole sends o through H's handler and returns the reply.
func (tr *tracedRun) serveWhole(o *op, i int, record bool) (*httptest.ResponseRecorder, int) {
	req := httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body))
	w := httptest.NewRecorder()
	if !record {
		tr.h.srv.ServeHTTP(w, req)
		return w, -1
	}
	root := tr.step("request", -1, i, func() { tr.h.srv.ServeHTTP(w, req) })
	return w, root
}

// passWhole builds H, warms it with both clients' warm-up requests, and
// takes the first operations of client 0 through Server.ServeHTTP, one
// "request" span each, until tracedOps are done or a third of the run's
// seconds is spent. H is dropped afterwards.
func (tr *tracedRun) passWhole() ([]*httptest.ResponseRecorder, error) {
	var err error
	if tr.h, err = tr.build("H", osFS, false); err != nil {
		return nil, err
	}
	for c := range tr.in.warm {
		for i := range tr.in.warm[c] {
			o := &tr.in.warm[c][i]
			if w, _ := tr.serveWhole(o, -1, false); w.Code != http.StatusOK {
				return nil, fmt.Errorf("warm-up %s %s: status %d", o.method, o.path, w.Code)
			}
		}
	}
	seq := tr.in.measure[0]
	n := min(len(seq), scaled(tracedOps, tr.cfg.scale, 32))
	replies := make([]*httptest.ResponseRecorder, 0, n)
	deadline := time.Now().Add(time.Duration(tr.cfg.seconds / 3 * float64(time.Second)))
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		w, root := tr.serveWhole(&seq[i], i, true)
		replies = append(replies, w)
		tr.ops = append(tr.ops, tracedOp{op: &seq[i], request: root, query: -1, forest: -1})
	}
	if len(tr.ops) == 0 {
		return nil, fmt.Errorf("no operation replayed")
	}
	err = tr.h.close()
	tr.h = nil
	os.RemoveAll(tr.dir("H"))
	runtime.GC()
	return replies, err
}

// passSteps builds S over the counting filesystem, warms its serving
// tier the same way, and takes the operations passWhole covered apart,
// one span per layer boundary. On topk_cold the first direct top-k is
// timed on its own: it builds the VP-tree.
func (tr *tracedRun) passSteps() error {
	var sfs FS = osFS
	if tr.cfg.w.durable {
		tr.cfs = newCountingFS(osFS)
		sfs = tr.cfs
	}
	var err error
	if tr.s, err = tr.build("S", sfs, true); err != nil {
		return err
	}
	first := true
	for c := range tr.in.warm {
		for i := range tr.in.warm[c] {
			o := &tr.in.warm[c][i]
			q, err := queryBagOf(o)
			if err != nil {
				return err
			}
			if o.kind == opTopK {
				if first {
					first = false
					build := tr.step("forest.metric_build", -1, -1, func() { forestTopK(tr.s.forest, q, o.k) })
					again := tr.step("forest.topk.after_build", -1, -1, func() { forestTopK(tr.s.forest, q, o.k) })
					tr.ms.set("forest.metric_build_ms", (tr.us(build)-tr.us(again))/1e3, "ms")
				}
				_, _, err = serveTopK(tr.s.srv, q, o.k)
			} else {
				_, _, err = serveLookup(tr.s.srv, q, o.tau)
			}
			if err != nil {
				return err
			}
		}
	}
	for i := range tr.ops {
		t := &tr.ops[i]
		if t.op.kind.isWrite() {
			err = tr.replayWrite(t.op, i, t)
		} else {
			err = tr.replayRead(t.op, i, t)
		}
		if err != nil {
			return fmt.Errorf("replaying %s %s in steps: %w", t.op.method, t.op.path, err)
		}
	}
	return nil
}

// queryBagOf parses a read's query document into its bag.
func queryBagOf(o *op) (Bag, error) {
	var b lookupBody
	if err := json.Unmarshal(o.body, &b); err != nil {
		return nil, err
	}
	t, err := parseXML(b.XML)
	if err != nil {
		return nil, err
	}
	return buildBag(t), nil
}

// judgeAll walks the oracle through the replayed sequence, applying each
// acknowledged write before judging the reads that followed it.
func (tr *tracedRun) judgeAll(replies []*httptest.ResponseRecorder) {
	for i, w := range replies {
		o := tr.ops[i].op
		tr.out.Attempted++
		if err := tr.judge(o, w); err != nil {
			tr.out.Failed++
			if len(tr.out.Notes) < maxErrNotes {
				tr.out.Notes = append(tr.out.Notes, fmt.Sprintf("traced %s %s: %v", o.method, o.path, err))
			}
		}
		if !o.kind.isWrite() {
			tr.respBytes = append(tr.respBytes, float64(w.Body.Len()))
		}
	}
}

// judge holds H's reply to the same rules as a reply over the wire, and
// compares every read with the oracle.
func (tr *tracedRun) judge(o *op, w *httptest.ResponseRecorder) error {
	if w.Code < 200 || w.Code > 299 {
		return fmt.Errorf("status %d: %.120s", w.Code, w.Body.Bytes())
	}
	if o.kind.isWrite() {
		if !json.Valid(w.Body.Bytes()) {
			return fmt.Errorf("unparsable body")
		}
		return tr.or.apply(o)
	}
	ms, err := decodeReply(o.kind, w.Body.Bytes())
	if err != nil {
		return err
	}
	if err := checkInvariants(o, ms); err != nil {
		return err
	}
	return tr.or.checkAgainst(o, ms)
}

func (tr *tracedRun) replayRead(o *op, i int, t *tracedOp) error {
	var err error
	var xml string
	var tree *Tree
	var q Bag
	var ms []Match
	rp := tr.rec.begin("replay", -1, i)
	dec := tr.step("json.decode", rp, i, func() {
		if o.kind == opTopK {
			var b topkBody
			err = json.NewDecoder(bytes.NewReader(o.body)).Decode(&b)
			xml = b.XML
		} else {
			var b lookupBody
			err = json.NewDecoder(bytes.NewReader(o.body)).Decode(&b)
			xml = b.XML
		}
	})
	if err != nil {
		return err
	}
	parse := tr.step("xmlconv.parse", rp, i, func() { tree, err = parseXML(xml) })
	if err != nil {
		return err
	}
	build := tr.step("profile.build", rp, i, func() { q = buildBag(tree) })
	t.query = tr.step("serve.query", rp, i, func() {
		if o.kind == opTopK {
			ms, t.cached, err = serveTopK(tr.s.srv, q, o.k)
		} else {
			ms, t.cached, err = serveLookup(tr.s.srv, q, o.tau)
		}
	})
	if err != nil {
		return err
	}
	fsBefore := tr.fsCounts()
	name := "forest.lookup"
	if o.kind == opTopK {
		name = "forest.topk"
	}
	t.forest = tr.step(name, rp, i, func() {
		if o.kind == opTopK {
			forestTopK(tr.s.forest, q, o.k)
		} else {
			forestLookup(tr.s.forest, q, o.tau)
		}
	})
	tr.lookupFS = tr.lookupFS.add(tr.fsCounts().sub(fsBefore))
	tr.lookups++
	enc := tr.step("json.encode", rp, i, func() {
		tr.buf.Reset()
		if o.kind == opTopK {
			err = json.NewEncoder(&tr.buf).Encode(topkReply(tr.s.forest, o.k, ms))
		} else {
			err = json.NewEncoder(&tr.buf).Encode(ms)
		}
	})
	tr.rec.end(rp)
	t.steps = []int{dec, parse, build, t.query, enc}
	t.parse, t.build, t.nodes = parse, build, treeNodes(tree)
	return err
}

// editsInput decodes an edits request into what Update takes, the way
// handleEdits does, without recording: the twin and the core probe each
// need a private copy.
func editsInput(o *op) (*Tree, EditLog, error) {
	var b editsBody
	if err := json.Unmarshal(o.body, &b); err != nil {
		return nil, nil, err
	}
	tn, err := parseXML(b.XML)
	if err != nil {
		return nil, nil, err
	}
	if err := applyIDs(tn, b.IDs); err != nil {
		return nil, nil, err
	}
	log, err := vetLog(tn, b.Log)
	return tn, log, err
}

func (tr *tracedRun) replayWrite(o *op, i int, t *tracedOp) error {
	// What the twin and the core probe need is prepared before the
	// replay span opens, so that the span's self time — its duration
	// minus its steps — is the recorder's and nothing else's.
	var err error
	var twinTree, coreTree *Tree
	var twinLog, coreLog EditLog
	var bag Bag
	switch o.kind {
	case opPut:
		twinTree, err = parseXMLReader(bytes.NewReader(o.body))
	case opEdits:
		if twinTree, twinLog, err = editsInput(o); err == nil {
			coreTree, coreLog, err = editsInput(o)
			bag = tr.twin.TreeIndex(o.id)
		}
	}
	if err != nil {
		return err
	}

	rp := tr.rec.begin("replay", -1, i)
	defer func() { tr.rec.end(rp) }()
	fsBefore := tr.fsCounts()
	switch o.kind {
	case opPut:
		var tree *Tree
		parse := tr.step("xmlconv.parse", rp, i, func() { tree, err = parseXMLReader(bytes.NewReader(o.body)) })
		if err != nil {
			return err
		}
		put := tr.step("store.put", rp, i, func() { _, err = tr.s.store.Put(o.id, tree) })
		if err != nil {
			return err
		}
		tr.step("forest.put", rp, i, func() { tr.twin.Put(o.id, twinTree) })
		t.steps, t.nodes = []int{parse, put}, treeNodes(tree)
	case opEdits:
		var b editsBody
		var tn *Tree
		var log EditLog
		dec := tr.step("json.decode", rp, i, func() { err = json.NewDecoder(bytes.NewReader(o.body)).Decode(&b) })
		if err != nil {
			return err
		}
		parse := tr.step("xmlconv.parse", rp, i, func() { tn, err = parseXML(b.XML) })
		if err != nil {
			return err
		}
		ids := tr.step("xmlconv.ids", rp, i, func() { err = applyIDs(tn, b.IDs) })
		if err != nil {
			return err
		}
		vet := tr.step("edit.log", rp, i, func() { log, err = vetLog(tn, b.Log) })
		if err != nil {
			return err
		}
		// The paper's maintenance on its own: δ and 𝒰 over a private copy
		// of the document's bag, no postings, no journal.
		var plus, minus int
		tr.step("core.update", rp, i, func() { plus, minus, err = coreUpdate(bag, coreTree, coreLog) })
		if err != nil {
			return err
		}
		tr.editOps += len(b.Log)
		tr.deltaGrams += plus + minus
		upd := tr.step("store.update", rp, i, func() { _, err = tr.s.store.Update(o.id, tn, log) })
		if err != nil {
			return err
		}
		tr.step("forest.update", rp, i, func() { _, err = tr.twin.Update(o.id, twinTree, twinLog) })
		if err != nil {
			return err
		}
		t.steps, t.nodes = []int{dec, parse, ids, vet, upd}, treeNodes(tn)
	case opDelete:
		rm := tr.step("store.remove", rp, i, func() { err = tr.s.store.Remove(o.id) })
		if err != nil {
			return err
		}
		tr.step("forest.remove", rp, i, func() { err = tr.twin.Remove(o.id) })
		if err != nil {
			return err
		}
		t.steps = []int{rm}
	}
	tr.writeFS = tr.writeFS.add(tr.fsCounts().sub(fsBefore))
	return nil
}

func (tr *tracedRun) fsCounts() fsCounts {
	if tr.cfs == nil {
		return fsCounts{}
	}
	return tr.cfs.counts()
}
