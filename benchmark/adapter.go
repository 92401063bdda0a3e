// adapter.go is the only file of the benchmark that imports the pqgram
// module. Everything else is written against the names declared here, so
// an API change in the module is a one-file fix in a later benchmark
// issue, and a reader can see the benchmark's whole contact surface with
// the system under test on one page.

package main

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"pqgram/internal/core"
	"pqgram/internal/edit"
	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/gen"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/serve"
	"pqgram/internal/store"
	"pqgram/internal/tree"
	"pqgram/internal/xmlconv"
)

// The module's types the benchmark handles, under local names.
type (
	Tree      = tree.Tree
	Bag       = profile.Index
	Match     = forest.Match
	EditLog   = edit.Log
	Forest    = forest.Index
	Segmented = store.Segmented
	Server    = serve.Server
	Collector = obs.Collector
	FS        = fsio.FS
	File      = fsio.File
	Dir       = fsio.Dir
)

// osFS is the passthrough filesystem the counting wrapper decorates.
var osFS FS = fsio.OS

// serverPackage is what `go build` compiles into the system under test.
const serverPackage = "pqgram/cmd/pqserve"

// pqserve's defaults (cmd/pqserve/main.go), repeated for the in-process
// replicas of the traced run so they are configured like the child.
const (
	serveCacheSize   = 1024
	serveMaxInFlight = 64
	serveMaxQueue    = 256
	traceSampleEvery = 16
	traceRingSize    = 64
)

// --- generation ---------------------------------------------------------

// genBase builds one cluster's base document: DBLP-shaped for even
// kinds, XMark-shaped for odd ones.
func genBase(kind int, seed int64, nodes int) *Tree {
	if kind%2 == 0 {
		return gen.DBLP(seed, nodes)
	}
	return gen.XMark(seed, nodes)
}

// perturb clones t and applies n random XML-faithful edit operations,
// returning the edited clone and the log of inverse operations.
func perturb(rng *rand.Rand, t *Tree, n int) (*Tree, EditLog, error) {
	return gen.Perturb(rng, t, n, gen.XMLSafeMix)
}

func treeXML(t *Tree) (string, error) { return xmlconv.WriteString(t) }

func treeNodes(t *Tree) int { return t.Size() }

// sameDocument reports whether two trees have the same shape and labels,
// which is all the index can see of a document.
func sameDocument(a, b *Tree) bool { return tree.EqualLabels(a, b) }

// treeIDs is the preorder node-identity list an edits request carries.
func treeIDs(t *Tree) []int64 {
	ids := t.PreorderIDs()
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id)
	}
	return out
}

// logLines serialises an edit log the way POST /docs/{id}/edits reads it.
func logLines(log EditLog) []string {
	out := make([]string, len(log))
	for i, op := range log {
		out[i] = op.String()
	}
	return out
}

// --- the layers' public functions, as the handlers call them -------------

func parseXML(s string) (*Tree, error) { return xmlconv.ParseString(s, xmlconv.Options{}) }

func parseXMLReader(r io.Reader) (*Tree, error) { return xmlconv.Parse(r, xmlconv.Options{}) }

func buildBag(t *Tree) Bag { return profile.BuildIndex(t, profile.Default) }

func bagSize(b Bag) int { return b.Size() }

// flattenBag copies a bag out as parallel slices (unsorted); the oracle
// keeps its own representation so it shares no code with the index.
func flattenBag(b Bag) (tuples []uint64, counts []int32) {
	tuples = make([]uint64, 0, len(b))
	counts = make([]int32, 0, len(b))
	for lt, c := range b {
		tuples = append(tuples, uint64(lt))
		counts = append(counts, int32(c))
	}
	return tuples, counts
}

// applyIDs renumbers a freshly parsed tree, as handleEdits does.
func applyIDs(t *Tree, ids []int64) error {
	nids := make([]tree.NodeID, len(ids))
	for i, id := range ids {
		nids[i] = tree.NodeID(id)
	}
	return t.SetIDs(nids)
}

// vetLog is handleEdits' edit-layer work: parse, verify, optimise.
func vetLog(tn *Tree, lines []string) (EditLog, error) {
	ops, err := edit.ReadLog(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		return nil, err
	}
	if _, err := edit.VerifyLog(tn, ops); err != nil {
		return nil, err
	}
	return edit.OptimizeLog(tn, ops), nil
}

// coreUpdate runs the paper's maintenance (δ then 𝒰) on a private copy
// of a bag and reports the λ-grams it added and removed.
func coreUpdate(bag Bag, tn *Tree, log EditLog) (plus, minus int, err error) {
	st, err := core.UpdateIndexInPlace(bag, tn, log, profile.Default)
	return st.PlusGrams, st.MinusGrams, err
}

// --- in-process replicas of the child's wiring ----------------------------

// replica is one in-process copy of what cmd/pqserve assembles: a forest
// (optionally the memtable of a segmented store), the serving tier over
// it, and the collector both report into.
type replica struct {
	srv    *Server
	forest *Forest
	store  *Segmented // nil for the in-memory configuration
	col    *Collector
}

func newCollector() *Collector {
	col := obs.NewCollector()
	col.SetTracer(obs.NewTracer(traceSampleEvery, traceRingSize))
	return col
}

func serveOver(f *Forest, backend serve.Backend, col *Collector, cacheSize int) *Server {
	return serve.New(f, backend, serve.Config{
		CacheSize:   cacheSize,
		MaxInFlight: serveMaxInFlight,
		MaxQueue:    serveMaxQueue,
	}, col)
}

// newMemReplica mirrors `pqserve -cache N`.
func newMemReplica(cacheSize int) *replica {
	col := newCollector()
	profile.SetCollector(col)
	f := forest.New(profile.Default)
	f.SetCollector(col)
	return &replica{srv: serveOver(f, nil, col, cacheSize), forest: f, col: col}
}

// newSegReplica mirrors `pqserve -index path -segments`; a store already
// at path is reopened, as the child does after a restart.
func newSegReplica(fsys FS, path string, exists, syncWrites bool, flushEvery, cacheSize int) (*replica, error) {
	var st *Segmented
	var err error
	if exists {
		st, err = store.OpenSegmentedFS(fsys, path)
	} else {
		st, err = store.CreateSegmentedFS(fsys, path, profile.Default)
	}
	if err != nil {
		return nil, fmt.Errorf("segmented store %s: %w", path, err)
	}
	col := newCollector()
	profile.SetCollector(col)
	st.SetSync(syncWrites)
	st.SetFlushThreshold(flushEvery)
	st.SetCollector(col)
	return &replica{srv: serveOver(st.Forest(), st, col, cacheSize), forest: st.Forest(), store: st, col: col}, nil
}

// newBareForest is an uninstrumented in-memory index: the twin a store
// write is compared with, and the base of the collector-overhead probe.
func newBareForest() *Forest { return forest.New(profile.Default) }

// setForestCollector attaches or (with nil) detaches instrumentation.
func setForestCollector(f *Forest, col *Collector) { f.SetCollector(col) }

// counters is a collector's counter and gauge state, flattened.
func counters(col *Collector) map[string]float64 {
	snap := col.Snapshot()
	out := make(map[string]float64, len(snap.Counters)+len(snap.Gauges))
	for k, v := range snap.Counters {
		out[k] = float64(v)
	}
	for k, v := range snap.Gauges {
		out[k] = float64(v)
	}
	return out
}

// --- the query path, layer by layer ------------------------------------------

// serveLookup and serveTopK go through the serving tier (admission,
// cache, batcher) exactly as the HTTP handlers do after parsing.
func serveLookup(srv *Server, q Bag, tau float64) (ms []Match, cached bool, err error) {
	res, err := srv.Lookup(q, tau)
	return res.Matches, res.Cached, err
}

func serveTopK(srv *Server, q Bag, k int) (ms []Match, cached bool, err error) {
	res, err := srv.TopK(q, k)
	return res.Matches, res.Cached, err
}

// forestLookup and forestTopK are the index alone, below the serving tier.
func forestLookup(f *Forest, q Bag, tau float64) []Match { return f.LookupIndex(q, tau) }

func forestTopK(f *Forest, q Bag, k int) []Match { return f.LookupIndexTopK(q, k) }

// topkReply is the body handleTopK encodes.
func topkReply(f *Forest, k int, ms []Match) any {
	if ms == nil {
		ms = []Match{}
	}
	return map[string]any{"k": k, "matches": ms, "metric": f.MetricReady()}
}

// close closes a replica's store, if it has one.
func (r *replica) close() error {
	if r.store == nil {
		return nil
	}
	return r.store.Close()
}
