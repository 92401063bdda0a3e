// Instrumentation of profiling (pq-gram extraction). BuildIndex is a pure
// function with no receiver to hang per-instance state on, so the collector
// is package-global: SetCollector swaps an atomic pointer that is never
// nil, and with no collector attached its handles are nil no-ops (see
// package obs). Per-gram work is never instrumented — the counters are fed
// once per build from the finished bag.

package profile

import (
	"sync/atomic"

	"pqgram/internal/obs"
)

// buildMetrics holds the preresolved profiling metric handles.
type buildMetrics struct {
	col      *obs.Collector
	builds   *obs.Counter   // profile_builds
	grams    *obs.Counter   // profile_grams (bag cardinality produced)
	distinct *obs.Counter   // profile_distinct_tuples
	bagSize  *obs.Histogram // profile_bag_size
	buildNS  *obs.Histogram // profile_build_ns
}

var buildObs atomic.Pointer[buildMetrics]

func init() { SetCollector(nil) }

// SetCollector attaches (or, with nil, detaches) the process-global
// profiling collector. Safe to call concurrently with builds.
func SetCollector(c *obs.Collector) {
	buildObs.Store(&buildMetrics{
		col:      c,
		builds:   c.Counter("profile_builds"),
		grams:    c.Counter("profile_grams"),
		distinct: c.Counter("profile_distinct_tuples"),
		bagSize:  c.Histogram("profile_bag_size"),
		buildNS:  c.Histogram("profile_build_ns"),
	})
}

// Collector returns the attached profiling collector, or nil.
func Collector() *obs.Collector { return buildObs.Load().col }
