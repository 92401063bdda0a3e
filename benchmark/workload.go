// The five workloads: how each configures the server, what it sends, and
// why it exists. BENCHMARK.json repeats the names and the one-line
// rationale; README.md has the long form.

package main

import "fmt"

type workload struct {
	name string
	why  string

	// Server configuration.
	durable    bool // -index <dir>/idx -segments
	syncWrites bool // -sync
	flushEvery int  // -flush-every at -scale 1; scaled with the corpus, see flushAt
	restart    bool // kill and restart after the load, so no document is resident

	warmup int // warm-up requests before the window, both clients together

	// gated names the operation kind whose latency is the workload's
	// op_p50_ms / op_p95_ms.
	gated func(opKind) bool

	// verifyDurability: after the window check the whole corpus against
	// the oracle, kill -9 the server, restart it and check again.
	verifyDurability bool
}

func isLookup(k opKind) bool { return k == opLookup }
func isTopK(k opKind) bool   { return k == opTopK }

var workloads = []*workload{
	{
		name:   "read_cold",
		why:    "distinct /lookup queries, tau cycling 0.1-0.7, in-memory index: every request pays decode, parse, profile, forest traversal and encode; forest postings and the planner dominate",
		warmup: 1024,
		gated:  isLookup,
	},
	{
		name:   "topk_cold",
		why:    "distinct /topk queries, k cycling 1/10/25, in-memory index: the top-k planner and the VP-tree do the work; a change to threshold lookups alone must leave it flat",
		warmup: 192,
		gated:  isTopK,
	},
	{
		name:   "read_hot",
		why:    "/lookup tau=0.3 drawn Zipf(1.1) from 256 queries, ~all result-cache hits: HTTP, JSON, XML parse, profile build and the cache probe are the whole cost; a postings change must not show here",
		warmup: 1024,
		gated:  isLookup,
	},
	{
		name:       "read_segments",
		why:        "read_cold's requests against a durable store restarted after the load, every document served from 16 on-disk segments: isolates the store tier (bloom probes, block decode, block cache)",
		durable:    true,
		flushEvery: 128,
		restart:    true,
		warmup:     1024,
		gated:      isLookup,
	},
	{
		name:             "write_mix",
		why:              "1 op in 4 is an fsynced write (60% edit logs, 25% replace, 10% new id, 5% delete) beside hot-pool lookups: journal, fsync, flush stalls, cache invalidation; op_* is write latency; ends with kill -9",
		durable:          true,
		syncWrites:       true,
		flushEvery:       128,
		warmup:           1024,
		gated:            opKind.isWrite,
		verifyDurability: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// flushAt is the flush threshold at the given scale: it shrinks with the
// corpus so that a scaled-down run still spreads it over 16 segments.
func (w *workload) flushAt(scale float64) int { return scaled(w.flushEvery, scale, 4) }

// cacheAt is the result-cache capacity at the given scale: pqserve's
// default at scale 1, shrinking with the sequences so that a scaled-down
// read_cold still cycles through more queries than the cache holds.
func cacheAt(scale float64) int { return scaled(serveCacheSize, scale, 8) }

// serverArgs is the child's command line, after -addr.
func (w *workload) serverArgs(dataDir string, scale float64) []string {
	args := []string{"-quiet", "-cache", fmt.Sprint(cacheAt(scale))}
	if w.durable {
		args = append(args, "-index", dataDir+"/idx", "-segments", "-flush-every", fmt.Sprint(w.flushAt(scale)))
		if w.syncWrites {
			args = append(args, "-sync")
		}
	}
	return args
}
