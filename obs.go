package pqgram

import (
	"pqgram/internal/obs"
	"pqgram/internal/profile"
)

// Collector is the observability handle of the library: a named-metric
// registry (atomic counters, gauges, log2-bucket latency histograms with
// p50/p95/p99) plus an optional *slog.Logger event sink. Instrumentation
// is opt-in everywhere: a nil *Collector is a valid no-op (the contract
// is stated in the internal/obs package comment).
//
// Attach it with (*Forest).SetCollector or (*Store).SetCollector — the
// store variant also covers its in-memory forest — and, for profiling
// metrics (pq-grams produced per build), the process-global
// SetProfileCollector. Read it back with Collector.Snapshot, which is
// deterministic for equal metric states and JSON-ready.
type Collector = obs.Collector

// MetricsSnapshot is a point-in-time, JSON-ready view of every metric of a
// Collector.
type MetricsSnapshot = obs.Snapshot

// NewCollector creates an empty metrics collector.
func NewCollector() *Collector { return obs.NewCollector() }

// SetProfileCollector attaches (or, with nil, detaches) the process-global
// collector for profiling metrics: pq-gram bags built, grams produced, bag
// sizes and build latency. Profiling is a pure function without a receiver,
// hence the global scope; every other subsystem attaches per instance.
func SetProfileCollector(c *Collector) { profile.SetCollector(c) }
