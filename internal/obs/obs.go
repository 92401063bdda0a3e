// Package obs is the observability layer of the index: atomic counters,
// gauges, bounded log2-bucket latency histograms, a named-metric registry
// with deterministic snapshots, and an optional structured-log event sink.
//
// The package is dependency-free and allocation-conscious: recording a
// sample is a handful of atomic operations on preallocated state, and every
// metric type is safe for concurrent use.
//
// The instrumentation contract, which every instrumented package follows:
//
//   - Every method of Counter, Gauge, Histogram, Span and Collector is a
//     no-op on a nil receiver, and a nil *Collector hands out nil
//     handles and nil spans.
//   - An instrumented type resolves its handles once into a metrics
//     struct and always holds one, behind an atomic.Pointer that is
//     never nil. With no collector attached the struct's handles are nil
//     (resolving them from a nil *Collector gives exactly that), so call
//     sites record without a nil guard.
//
// pqlint's obscheck enforces the second rule: a metrics struct lives
// behind atomic.Pointer, and nil is never stored there.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n to the counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value; 0 on a nil counter.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value (queue depth, pool width). The zero value
// is ready to use; a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta (use negative deltas to decrement).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current value; 0 on a nil gauge.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// numBuckets is the number of log2 histogram buckets: bucket 0 holds the
// value 0, bucket i (i ≥ 1) holds values in [2^(i-1), 2^i − 1]. 64 value
// buckets cover the whole non-negative int64 range, so Observe never
// clamps.
const numBuckets = 65

// Histogram is a bounded log2-bucket histogram of non-negative values
// (typically latencies in nanoseconds). Recording a sample is four atomic
// adds plus two bounded CAS loops for min/max; the memory footprint is
// fixed at construction. The zero value is ready to use; a nil *Histogram
// is a no-op.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only while count > 0
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketBounds returns the inclusive value range [lo, hi] of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	return int64(1) << (i - 1), int64(1)<<i - 1
}

// Observe records one sample. Negative values count as 0.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	if h.count.Add(1) == 1 {
		// First sample initializes min/max; racing observers fix any
		// interleaving through the CAS loops below.
		h.min.Store(v)
		h.max.Store(v)
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveSince records the elapsed nanoseconds since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h != nil {
		h.Observe(time.Since(t0).Nanoseconds())
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-quantile (0 < q ≤ 1) of the recorded samples by
// linear interpolation inside the target log2 bucket. The estimate is exact
// to within the bucket's resolution (a factor of 2). It returns 0 when the
// histogram is empty or nil.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	est := h.max.Load()
	cum := int64(0)
	for i := 0; i < numBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo, hi := bucketBounds(i)
			// Position of the target rank inside this bucket, in (0, 1].
			pos := float64(rank-cum) / float64(n)
			est = lo + int64(pos*float64(hi-lo))
			break
		}
		cum += n
	}
	// The interpolated estimate can overshoot what was actually observed
	// (the bucket bound is an upper envelope); clamp to the true range.
	if max := h.max.Load(); est > max {
		est = max
	}
	if min := h.min.Load(); est < min {
		est = min
	}
	return est
}

// Bucket is one non-empty histogram bucket in a snapshot: the inclusive
// value range [Lo, Hi] and its sample count.
type Bucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time view of a histogram, ready for JSON.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Mean    float64  `json:"mean"`
	P50     int64    `json:"p50"`
	P95     int64    `json:"p95"`
	P99     int64    `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram state. Concurrent Observe calls are
// tolerated; each field is read atomically.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
		s.Mean = float64(s.Sum) / float64(s.Count)
		s.P50 = h.Quantile(0.50)
		s.P95 = h.Quantile(0.95)
		s.P99 = h.Quantile(0.99)
	}
	for i := 0; i < numBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			lo, hi := bucketBounds(i)
			s.Buckets = append(s.Buckets, Bucket{Lo: lo, Hi: hi, Count: n})
		}
	}
	return s
}
