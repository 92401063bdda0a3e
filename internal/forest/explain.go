// EXPLAIN for lookups: run the query with tracing forced on and return
// the plan decision plus the span tree of work counters. The explain path
// reuses the exact production lookup code (lookupIndexSpanned /
// lookupIndexTopKSpanned), so what EXPLAIN reports is what a real query
// does — same planner decision, same bounds, same counters — and the
// work-counter attributes are byte-identical across runs for the same
// corpus, query and plan mode (only durations vary; see
// obs.SpanSnapshot.StripDurations).

package forest

import (
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// Plan names reported by the explain API and recorded (as planCode) in
// the "plan" span attribute.
const (
	// planScanAll is the τ > 1 whole-forest scan: every tree qualifies
	// at distance 1, so the postings cannot enumerate the answer.
	planScanAll = "scan-all"
	// planExhaustive accumulates the full overlap of every tree sharing
	// at least one tuple (threshold lookups), or scores every tree
	// (top-k).
	planExhaustive = "exhaustive"
	// planPruned is the threshold-aware path: size window, rare-first
	// traversal, o_min early abandon.
	planPruned = "pruned"
)

// planCode maps a plan name to its integer span-attribute encoding:
// 0 scan-all, 1 exhaustive, 2 pruned (matching the
// PlanExhaustive/PlanPruned constants).
func planCode(plan string) int {
	switch plan {
	case planExhaustive:
		return int(PlanExhaustive)
	case planPruned:
		return int(PlanPruned)
	default:
		return 0
	}
}

// ExplainResult is the structured outcome of an explained query: the
// operation, the candidate strategy the planner chose, the matches, and
// the trace — a JSON-ready span tree whose attributes carry the per-stage
// work counters (see the package comment of internal/obs for the span
// taxonomy and determinism contract).
type ExplainResult struct {
	Op      string           `json:"op"`   // "lookup" or "topk"
	Plan    string           `json:"plan"` // chosen candidate strategy
	Tau     float64          `json:"tau,omitempty"`
	K       int              `json:"k,omitempty"`
	Matches []Match          `json:"matches"`
	Trace   obs.SpanSnapshot `json:"trace"`
}

// ExplainLookup runs Lookup with tracing forced on (no tracer needs to be
// attached, and sampling does not apply) and returns the plan decision,
// matches and work-counter span tree. The query still updates the
// attached metrics like any other lookup.
func (f *Index) ExplainLookup(query *tree.Tree, tau float64) ExplainResult {
	sp := obs.StartSpan("forest.lookup")
	q := profile.BuildIndexSpanned(query, f.pr, sp)
	out, plan := f.lookupIndexSpanned(q, tau, f.obs.Load(), sp)
	sp.Finish()
	return ExplainResult{Op: "lookup", Plan: plan, Tau: tau, Matches: out, Trace: sp.Snapshot()}
}

// ExplainTopK runs LookupTopK with tracing forced on; see ExplainLookup.
func (f *Index) ExplainTopK(query *tree.Tree, k int) ExplainResult {
	sp := obs.StartSpan("forest.topk")
	q := profile.BuildIndexSpanned(query, f.pr, sp)
	out := f.lookupIndexTopKSpanned(q, k, f.obs.Load(), sp)
	sp.Finish()
	return ExplainResult{Op: "topk", Plan: planExhaustive, K: k, Matches: out, Trace: sp.Snapshot()}
}
