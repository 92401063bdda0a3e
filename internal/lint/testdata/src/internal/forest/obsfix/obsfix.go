// Fixture for obscheck: metric-handle structs must sit behind
// atomic.Pointer, and a possibly-nil metrics pointer may only be
// dereferenced under a nil guard.
package obsfix

import (
	"sync/atomic"

	"pqgram/internal/obs"
)

// metrics is the preresolved-handle shape the analyzer recognizes.
type metrics struct {
	lookups *obs.Counter
	latency *obs.Histogram
}

// A plain field of metrics-pointer type lets SetCollector race readers.
type badIndex struct {
	m *metrics // want `metric-handle struct stored in a plain field`
}

// The sanctioned container, plus a bare collector pointer (nil-safe by
// construction, so a plain field is fine).
type goodIndex struct {
	m atomic.Pointer[metrics]
	c *obs.Collector
}

// Load-then-guard is the canonical read pattern.
func (x *goodIndex) observe() {
	m := x.m.Load()
	if m != nil {
		m.lookups.Inc()
	}
}

func unguarded(m *metrics) {
	m.lookups.Inc() // want `possibly-nil metrics pointer "m" dereferenced without a nil guard`
}

func guardedIf(m *metrics) {
	if m != nil {
		m.lookups.Inc()
	}
}

func guardedEarlyReturn(m *metrics) {
	if m == nil {
		return
	}
	m.lookups.Inc()
}

func guardedConjunction(m *metrics, on bool) {
	if on && m != nil {
		m.latency.Observe(1)
	}
}

func guardedElseBranch(m *metrics) {
	if m == nil {
		println("uninstrumented")
	} else {
		m.lookups.Inc()
	}
}

// A lexical guard outside a closure still holds inside it: metrics
// pointers are immutable locals.
func guardedClosure(m *metrics) func() {
	if m == nil {
		return func() {}
	}
	return func() {
		m.lookups.Inc()
	}
}

// A pointer built from a composite literal is provably non-nil.
func newMetrics(c *obs.Collector) *metrics {
	m := &metrics{
		lookups: c.Counter("lookups"),
		latency: c.Histogram("latency"),
	}
	m.lookups.Inc()
	return m
}

// A re-load after the guard may be nil again: the guard proved only the
// value it checked.
func (x *goodIndex) reloadedAfterGuard() {
	m := x.m.Load()
	if m == nil {
		return
	}
	m = x.m.Load()
	m.lookups.Inc() // want `possibly-nil metrics pointer "m" dereferenced without a nil guard`
}

// A nil disjunct of an early return's condition guards what follows.
func guardedDisjunction(m *metrics, off bool) {
	if m == nil || off {
		return
	}
	m.lookups.Inc()
}

// A panic on nil leaves the function as surely as a return.
func guardedPanic(m *metrics) {
	if m == nil {
		panic("no metrics")
	}
	m.lookups.Inc()
}
