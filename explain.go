package pqgram

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"pqgram/internal/forest"
	"pqgram/internal/obs"
)

// ExplainResult is the structured outcome of (*Forest).ExplainLookup /
// ExplainTopK: the plan the query planner chose, the matches, and a
// JSON-ready span tree whose integer attributes carry the per-stage work
// counters (candidates examined, postings scanned, ...). For a fixed
// corpus, query and plan mode the work counters are byte-identical across
// runs; only the span durations vary.
type ExplainResult = forest.ExplainResult

// SpanSnapshot is one node of a finished trace: name, duration and
// sorted-key integer work attributes. StripDurations returns the
// deterministic comparison form.
type SpanSnapshot = obs.SpanSnapshot

// TraceSnapshot is one published trace in a Tracer's ring buffer.
type TraceSnapshot = obs.TraceSnapshot

// Span is a live trace span; instrumented code paths accept and return
// nil-safe *Span values.
type Span = obs.Span

// Tracer samples queries for tracing (deterministic every-Nth) and keeps
// the most recent traces in a bounded lock-striped ring buffer. Attach
// one with Collector.SetTracer; read back with Tracer.RecentTraces.
type Tracer = obs.Tracer

// NewTracer creates a tracer sampling every Nth traceable operation
// (every ≤ 1 traces all) and retaining about `capacity` recent traces.
func NewTracer(every, capacity int) *Tracer { return obs.NewTracer(every, capacity) }

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format: counters, gauges, and histograms as cumulative
// le-buckets plus _sum/_count, all in stable sorted order.
func WritePrometheus(w io.Writer, s MetricsSnapshot) error { return obs.WritePrometheus(w, s) }

// FormatExplain renders an ExplainResult as an indented EXPLAIN
// ANALYZE-style plan. Attributes print in sorted key order, so without
// timings the output is byte-identical across runs for the same corpus,
// query and plan mode; withTimings appends each span's wall time.
func FormatExplain(res ExplainResult, withTimings bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  plan=%s", res.Op, res.Plan)
	if res.Op == "topk" {
		fmt.Fprintf(&b, "  k=%d", res.K)
	} else {
		fmt.Fprintf(&b, "  tau=%s", strconv.FormatFloat(res.Tau, 'g', -1, 64))
	}
	fmt.Fprintf(&b, "  matches=%d\n", len(res.Matches))
	formatSpan(&b, res.Trace, 0, withTimings)
	return b.String()
}

func formatSpan(b *strings.Builder, s SpanSnapshot, depth int, withTimings bool) {
	b.WriteString(strings.Repeat("  ", depth))
	if depth > 0 {
		b.WriteString("-> ")
	}
	b.WriteString(s.Name)
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, " %s=%d", k, s.Attrs[k])
	}
	if withTimings {
		fmt.Fprintf(b, " [%dns]", s.DurationNS)
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		formatSpan(b, c, depth+1, withTimings)
	}
}
