// Fixture for obscheck: metric-handle structs must sit behind
// atomic.Pointer, and that pointer is never stored nil.
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

// Readers use what they load: the pointer is never nil.
func (x *goodIndex) observe() {
	m := x.m.Load()
	m.lookups.Inc()
	m.latency.Observe(1)
}

// Detaching resolves the handles from a nil collector: nil no-ops.
func (x *goodIndex) setCollector(c *obs.Collector) {
	x.m.Store(&metrics{
		lookups: c.Counter("lookups"),
		latency: c.Histogram("latency"),
	})
}

func (x *goodIndex) detach() {
	x.m.Store(nil) // want `nil stored into a metrics pointer`
}

func (x *goodIndex) detachSwap() *metrics {
	return x.m.Swap(nil) // want `nil stored into a metrics pointer`
}

var global atomic.Pointer[metrics]

func detachGlobal() {
	global.Store(nil) // want `nil stored into a metrics pointer`
}

// An atomic.Pointer to anything but a metrics struct may hold nil.
var collector atomic.Pointer[obs.Collector]

func detachCollector() {
	collector.Store(nil)
}
