package obs_test

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"pqgram/internal/obs"
)

// TestHistogramBucketBoundaries pins the log2 bucketing: 0 is its own
// bucket, and every bucket i ≥ 1 covers exactly [2^(i-1), 2^i − 1].
func TestHistogramBucketBoundaries(t *testing.T) {
	h := &obs.Histogram{}
	// One observation per boundary value of the first few buckets.
	values := []int64{0, 1, 2, 3, 4, 7, 8, 15, 16, 1023, 1024}
	for _, v := range values {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != int64(len(values)) {
		t.Fatalf("count = %d, want %d", s.Count, len(values))
	}
	want := map[[2]int64]int64{
		{0, 0}:       1, // 0
		{1, 1}:       1, // 1
		{2, 3}:       2, // 2, 3
		{4, 7}:       2, // 4, 7
		{8, 15}:      2, // 8, 15
		{16, 31}:     1, // 16
		{512, 1023}:  1, // 1023
		{1024, 2047}: 1, // 1024
	}
	got := map[[2]int64]int64{}
	for _, b := range s.Buckets {
		got[[2]int64{b.Lo, b.Hi}] = b.Count
	}
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("bucket [%d,%d] = %d, want %d", k[0], k[1], got[k], n)
		}
	}
	if s.Min != 0 || s.Max != 1024 {
		t.Errorf("min/max = %d/%d, want 0/1024", s.Min, s.Max)
	}
}

// TestHistogramQuantiles checks that quantile estimates stay within the
// bucket resolution (a factor of two) and inside the observed range.
func TestHistogramQuantiles(t *testing.T) {
	h := &obs.Histogram{}
	// 100 samples of value 100 (bucket [64,127]): every quantile must be in
	// the observed range — and with one distinct value, exactly 100.
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 100 {
			t.Errorf("Quantile(%v) of constant-100 = %d, want 100 (clamped to observed range)", q, got)
		}
	}

	// Uniform 1..1000: p50 must land within a factor of 2 of 500, p99
	// within a factor of 2 of 990, and neither may exceed the max.
	h = &obs.Histogram{}
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	checks := []struct {
		q     float64
		exact int64
	}{{0.50, 500}, {0.95, 950}, {0.99, 990}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.exact/2 || got > c.exact*2 {
			t.Errorf("Quantile(%v) = %d, want within [%d, %d]", c.q, got, c.exact/2, c.exact*2)
		}
		if got > 1000 {
			t.Errorf("Quantile(%v) = %d exceeds observed max 1000", c.q, got)
		}
	}
	if h.Quantile(1) != 1000 {
		t.Errorf("Quantile(1) = %d, want 1000", h.Quantile(1))
	}
}

// TestConcurrentCounters hammers one counter, one gauge and one histogram
// from many goroutines; with -race this doubles as the data-race proof.
func TestConcurrentCounters(t *testing.T) {
	c := obs.NewCollector()
	counter := c.Counter("ops")
	gauge := c.Gauge("depth")
	hist := c.Histogram("lat")
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				counter.Inc()
				gauge.Set(int64(i))
				hist.Observe(int64(i % 512))
			}
		}(w)
	}
	wg.Wait()
	if got := counter.Load(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := hist.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if g := gauge.Load(); g < 0 || g >= perWorker {
		t.Errorf("gauge = %d, want in [0,%d)", g, perWorker)
	}
}

// TestNilSafety calls every method on nil handles: none may panic, reads
// return zero values.
func TestNilSafety(t *testing.T) {
	var col *obs.Collector
	col.Counter("x").Inc()
	col.Counter("x").Add(5)
	col.Gauge("y").Set(3)
	col.Gauge("y").Add(-1)
	col.Histogram("z").Observe(42)
	col.RegisterFunc("f", func() any { return 1 })
	col.SetLogger(slog.Default())
	col.Event("nothing happens", "k", "v")
	if got := col.Counter("x").Load(); got != 0 {
		t.Errorf("nil counter Load = %d", got)
	}
	if got := col.Histogram("z").Quantile(0.5); got != 0 {
		t.Errorf("nil histogram Quantile = %d", got)
	}
	snap := col.Snapshot()
	if snap.Counters != nil || snap.Histograms != nil {
		t.Errorf("nil collector snapshot not empty: %+v", snap)
	}

	var reg *obs.Registry
	reg.Counter("a").Inc()
}

// TestSnapshotDeterminism feeds two registries identically and requires
// byte-identical JSON snapshots, the property BENCH_*.json diffs rely on.
func TestSnapshotDeterminism(t *testing.T) {
	build := func() *obs.Registry {
		r := obs.NewRegistry()
		// Register in different orders to prove order-insensitivity.
		names := []string{"alpha", "beta", "gamma", "delta"}
		for _, n := range names {
			r.Counter(n).Add(int64(len(n)))
		}
		r.Gauge("depth").Set(7)
		for i := int64(1); i <= 100; i++ {
			r.Histogram("lat").Observe(i * 3)
		}
		return r
	}
	buildReversed := func() *obs.Registry {
		r := obs.NewRegistry()
		for i := int64(1); i <= 100; i++ {
			r.Histogram("lat").Observe(i * 3)
		}
		r.Gauge("depth").Set(7)
		names := []string{"delta", "gamma", "beta", "alpha"}
		for _, n := range names {
			r.Counter(n).Add(int64(len(n)))
		}
		return r
	}
	a, err := json.Marshal(build().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(buildReversed().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("snapshots differ:\n%s\n%s", a, b)
	}
}

// TestRegisterFunc checks computed metrics land under Values.
func TestRegisterFunc(t *testing.T) {
	c := obs.NewCollector()
	c.RegisterFunc("answer", func() any { return 42 })
	snap := c.Snapshot()
	if got := snap.Values["answer"]; got != 42 {
		t.Errorf("Values[answer] = %v, want 42", got)
	}
}

// TestEventSink checks the slog sink receives events with their attrs.
func TestEventSink(t *testing.T) {
	var buf strings.Builder
	c := obs.NewCollector()
	c.Event("dropped", "k", 1) // no sink yet: must not panic
	c.SetLogger(slog.New(slog.NewTextHandler(&buf, nil)))
	c.Event("compacted", "bytes", 123)
	if out := buf.String(); !strings.Contains(out, "compacted") || !strings.Contains(out, "bytes=123") {
		t.Errorf("event not logged: %q", out)
	}
}

// TestDiscardLogger: the quiet logger is enabled for no level, so a
// call through it never reaches a handler that formats, at any level and
// after attributes or a group are added.
func TestDiscardLogger(t *testing.T) {
	ctx := context.Background()
	for _, l := range []*slog.Logger{obs.DiscardLogger(), obs.DiscardLogger().With("k", 1).WithGroup("g")} {
		for _, lv := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelError} {
			if l.Enabled(ctx, lv) {
				t.Fatalf("DiscardLogger enabled at %v", lv)
			}
		}
		l.Error("dropped", "k", 1)
		if err := l.Handler().Handle(ctx, slog.Record{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuantileEmptyAndEdge covers empty histograms and out-of-range q.
func TestQuantileEmptyAndEdge(t *testing.T) {
	h := &obs.Histogram{}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %d", got)
	}
	h.Observe(64)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Quantile(q); got != 64 {
			t.Errorf("Quantile(%v) = %d, want 64", q, got)
		}
	}
}

// TestCounterDeltas: only moved counters appear in the delta, including
// counters that did not exist in the earlier snapshot.
func TestCounterDeltas(t *testing.T) {
	r := obs.NewRegistry()
	a, b := r.Counter("a"), r.Counter("b")
	a.Add(3)
	b.Add(1)
	before := r.Snapshot()
	a.Add(2)
	r.Counter("c").Inc()
	after := r.Snapshot()
	got := fmt.Sprint(after.CounterDeltas(before))
	if got != "map[a:2 c:1]" {
		t.Errorf("CounterDeltas = %s, want map[a:2 c:1]", got)
	}
	if len((obs.Snapshot{}).CounterDeltas(before)) != 0 {
		t.Error("empty snapshot should have no deltas")
	}
}
