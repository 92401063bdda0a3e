package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pqgram/internal/forest"
	"pqgram/internal/gen"
	"pqgram/internal/obs"
	"pqgram/internal/store"
	"pqgram/internal/tree"
)

// MicroOp is one measured operation of the micro suite.
type MicroOp struct {
	Name    string  `json:"name"`
	Iters   int     `json:"iters"`
	NsPerOp float64 `json:"ns_per_op"`
}

// MicroReport is the machine-readable output of the micro suite:
// wall-clock ns/op per operation, the full metrics snapshot the
// instrumented run produced, (since v2) the candidate-pruning threshold
// sweep of pruning.go and the top-k metric-vs-exhaustive sweep of
// topk.go, (since v3) the serving-tier load phases of serve.go, and
// (since v4) the out-of-core segment sweep of segments.go.
// This is the artifact `make bench-json` writes (BENCH_pr2.json through
// BENCH_pr9.json), the repo's perf trajectory.
type MicroReport struct {
	Schema    string          `json:"schema"` // "pqgram/microbench/v4"
	Timestamp string          `json:"timestamp"`
	GoVersion string          `json:"go_version"`
	GOOS      string          `json:"goos"`
	GOARCH    string          `json:"goarch"`
	NumCPU    int             `json:"num_cpu"`
	Docs      int             `json:"docs"`
	Seed      int64           `json:"seed"`
	Ops       []MicroOp       `json:"ops,omitempty"`
	Metrics   obs.Snapshot    `json:"metrics"`
	Pruning   []PruningPoint  `json:"pruning,omitempty"`  // pruned-vs-exhaustive lookup sweep
	TopK      []TopKPoint     `json:"topk,omitempty"`     // metric-vs-exhaustive top-k sweep
	Serve     []ServePhase    `json:"serve,omitempty"`    // serving-tier closed-loop load phases
	Segments  []SegmentsPoint `json:"segments,omitempty"` // out-of-core segment sweep
}

// NewReport returns a MicroReport stamped with the run environment, for
// experiments that emit the machine-readable artifact without running
// the full micro suite (`pqbench -exp serve -json ...`).
func NewReport(docs int, seed int64) *MicroReport {
	return &MicroReport{
		Schema:    "pqgram/microbench/v4",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Docs:      docs,
		Seed:      seed,
	}
}

// WriteFile writes the report as indented JSON.
func (r *MicroReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// timeOp runs fn iters times and records the mean wall-clock ns/op.
func timeOp(rep *MicroReport, name string, iters int, fn func() error) error {
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	rep.Ops = append(rep.Ops, MicroOp{
		Name:    name,
		Iters:   iters,
		NsPerOp: float64(time.Since(t0).Nanoseconds()) / float64(iters),
	})
	return nil
}

// Micro runs the instrumented end-to-end micro suite: a journaled store is
// bulk-built from `docs` DBLP-shaped documents (clusters of near-
// duplicates, so lookups and the join have real candidate sets), then
// exercised through lookups, batched lookups, incremental updates, a
// similarity join, a close/reopen cycle (journal replay) and a compaction.
// Every operation runs against the collector, so the report carries both
// wall-clock ns/op and the metric counters the run generated.
func Micro(docs int, seed int64, col *obs.Collector) (*Result, *MicroReport, error) {
	if docs < 4 {
		docs = 4
	}
	rep := NewReport(docs, seed)
	dir, err := os.MkdirTemp("", "pqbench-micro-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "micro.pqg")

	// Workload: docs/8 clusters of near-duplicate DBLP documents.
	rng := rand.New(rand.NewSource(seed))
	batch := make([]forest.Doc, docs)
	trees := make([]*tree.Tree, docs)
	clusters := docs / 8
	if clusters < 1 {
		clusters = 1
	}
	for i := range batch {
		trees[i] = gen.DBLP(seed+int64(i%clusters), 120+i%80)
		batch[i] = forest.Doc{ID: fmt.Sprintf("doc-%04d", i), Tree: trees[i]}
	}

	st, err := store.CreateSegmented(path, P33)
	if err != nil {
		return nil, nil, err
	}
	st.SetCollector(col)
	if err := timeOp(rep, "bulk_build", 1, func() error {
		return st.AddAll(batch, 0)
	}); err != nil {
		return nil, nil, err
	}
	f := st.Forest()

	// Approximate lookups: perturbed copies of collection documents.
	queries := make([]*tree.Tree, 8)
	for i := range queries {
		q, _, err := gen.Perturb(rng, trees[(i*docs)/len(queries)], 6, gen.DefaultMix)
		if err != nil {
			return nil, nil, err
		}
		queries[i] = q
	}
	qi := 0
	if err := timeOp(rep, "lookup", 4*len(queries), func() error {
		f.Lookup(queries[qi%len(queries)], 0.6)
		qi++
		return nil
	}); err != nil {
		return nil, nil, err
	}
	if err := timeOp(rep, "lookup_many_batch8", 4, func() error {
		f.LookupMany(queries, 0.6, 0)
		return nil
	}); err != nil {
		return nil, nil, err
	}

	// Incremental maintenance through the journaled store.
	updates := docs / 4
	if updates < 4 {
		updates = 4
	}
	ui := 0
	if err := timeOp(rep, "update_10ops", updates, func() error {
		doc := trees[ui%docs]
		_, log, err := gen.RandomScript(rng, doc, 10, gen.DefaultMix)
		if err != nil {
			return err
		}
		_, err = st.Update(fmt.Sprintf("doc-%04d", ui%docs), doc, log)
		ui++
		return err
	}); err != nil {
		return nil, nil, err
	}

	if err := timeOp(rep, "similarity_join", 1, func() error {
		f.SimilarityJoin(0.5)
		return nil
	}); err != nil {
		return nil, nil, err
	}

	// Durability cycle: close, reopen (replays the update journal), attach
	// the collector again so the replay metrics land in the snapshot, then
	// compact into one segment.
	if err := st.Close(); err != nil {
		return nil, nil, err
	}
	if err := timeOp(rep, "reopen_replay", 1, func() error {
		st, err = store.OpenSegmented(path)
		return err
	}); err != nil {
		return nil, nil, err
	}
	st.SetCollector(col)
	if err := timeOp(rep, "compact", 1, func() error {
		return st.Compact()
	}); err != nil {
		return nil, nil, err
	}
	if err := st.Forest().SelfCheck(); err != nil {
		return nil, nil, fmt.Errorf("post-run selfcheck: %w", err)
	}
	if err := st.Close(); err != nil {
		return nil, nil, err
	}
	rep.Metrics = col.Snapshot()

	res := &Result{
		Title:   "Micro suite: instrumented end-to-end operation timings",
		Comment: fmt.Sprintf("%d DBLP-shaped documents, seed %d; metric counters from the same run", docs, seed),
		Header:  []string{"op", "iters", "ns/op"},
	}
	for _, op := range rep.Ops {
		res.Rows = append(res.Rows, Row{
			Label:  op.Name,
			Values: []string{fmt.Sprintf("%d", op.Iters), fmt.Sprintf("%.0f", op.NsPerOp)},
		})
	}
	return res, rep, nil
}
