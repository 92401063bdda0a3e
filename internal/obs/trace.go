// Per-query tracing: a Trace is a deterministic tree of Spans, each
// carrying a name, a monotonic duration and a bag of integer work
// attributes (candidates examined, postings scanned, journal records
// replayed, ...). Aggregate metrics answer "how is the index doing";
// traces answer "why did THIS query cost what it did" — which plan the
// planner chose, which bounds fired, where the candidates died.
//
// Collection is opt-in per query through a Tracer attached to the
// Collector: Tracer.Start samples deterministically (every Nth call) and
// returns nil for the rest, and every Span method is nil-safe, so the
// traced-off fast path stays one nil check and allocates nothing. Root
// spans publish their finished snapshot into a bounded lock-striped ring
// buffer read back with RecentTraces.
//
// # Determinism contract
//
// Work attributes record logical work (counts of candidates, postings,
// nodes), never wall-clock, so for a fixed corpus, query and plan mode
// the attribute tree is byte-identical across runs; only DurationNS
// varies. SpanSnapshot.StripDurations returns the comparable form, and
// the explain differential tests hold every plan mode to it.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanAttr is one integer work attribute of a span.
type SpanAttr struct {
	Key   string
	Value int64
}

// Span is one node of a trace: a named piece of work with integer
// attributes and child spans. A nil *Span is a fully valid no-op — every
// method nil-checks — so instrumented code creates spans unconditionally
// and pays nothing when tracing is off.
//
// A span is not safe for concurrent use; concurrent work records into
// per-goroutine child spans or not at all.
type Span struct {
	name     string
	start    time.Time
	dur      time.Duration
	finished bool
	attrs    []SpanAttr
	children []*Span

	// Root-span fields: the tracer to publish into at Finish (nil for
	// standalone spans from StartSpan) and an optional correlation ID
	// (e.g. the HTTP request ID).
	tracer *Tracer
	id     string
}

// StartSpan starts a standalone root span, traced unconditionally and
// published nowhere: the caller reads it back with Snapshot after Finish.
// The explain path uses it so EXPLAIN works without any tracer attached.
func StartSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child starts a sub-span. Returns nil (a valid no-op) on a nil span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.children = append(s.children, c)
	return c
}

// SetAttr sets an integer work attribute, replacing any previous value
// under the same key. No-op on a nil span.
func (s *Span) SetAttr(key string, v int64) {
	if s == nil {
		return
	}
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = v
			return
		}
	}
	s.attrs = append(s.attrs, SpanAttr{Key: key, Value: v})
}

// SetTraceID attaches a correlation ID (e.g. an HTTP request ID) carried
// on the published TraceSnapshot. Meaningful on root spans; no-op on nil.
func (s *Span) SetTraceID(id string) {
	if s == nil {
		return
	}
	s.id = id
}

// Finish records the span's duration. Finishing a root span that came
// from a Tracer publishes the whole trace into the tracer's ring buffer.
// Finish is idempotent; no-op on a nil span.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.FinishWithDuration(time.Since(s.start))
}

// FinishWithDuration is Finish with an explicit duration, for spans
// synthesized after the fact (e.g. the journal-replay trace, whose work
// happened before any collector could be attached).
func (s *Span) FinishWithDuration(d time.Duration) {
	if s == nil || s.finished {
		return
	}
	s.finished = true
	s.dur = d
	if s.tracer != nil {
		s.tracer.Publish(TraceSnapshot{ID: s.id, Root: s.Snapshot()})
	}
}

// SpanSnapshot is the immutable, JSON-ready form of a finished span tree.
// Attrs serialize with sorted keys (encoding/json sorts map keys), so
// equal work records marshal to identical bytes.
type SpanSnapshot struct {
	Name       string           `json:"name"`
	DurationNS int64            `json:"duration_ns"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`
	Children   []SpanSnapshot   `json:"children,omitempty"`
}

// Snapshot captures the span subtree. Intended after Finish; an
// unfinished span reports its elapsed time so far. Zero value on nil.
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	d := s.dur
	if !s.finished {
		d = time.Since(s.start)
	}
	out := SpanSnapshot{Name: s.name, DurationNS: d.Nanoseconds()}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]int64, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	if len(s.children) > 0 {
		out.Children = make([]SpanSnapshot, len(s.children))
		for i, c := range s.children {
			out.Children[i] = c.Snapshot()
		}
	}
	return out
}

// StripDurations returns a deep copy with every DurationNS zeroed — the
// deterministic comparison form of the trace: for a fixed corpus, query
// and plan mode two stripped snapshots marshal to identical bytes.
func (s SpanSnapshot) StripDurations() SpanSnapshot {
	out := s
	out.DurationNS = 0
	if len(s.Attrs) > 0 {
		out.Attrs = make(map[string]int64, len(s.Attrs))
		for k, v := range s.Attrs {
			out.Attrs[k] = v
		}
	}
	if len(s.Children) > 0 {
		out.Children = make([]SpanSnapshot, len(s.Children))
		for i, c := range s.Children {
			out.Children[i] = c.StripDurations()
		}
	}
	return out
}

// SumAttr returns the sum of the named attribute over the whole span
// tree — how the bench harness cross-checks traced work counters against
// the registry's counter deltas.
func (s SpanSnapshot) SumAttr(key string) int64 {
	n := s.Attrs[key]
	for _, c := range s.Children {
		n += c.SumAttr(key)
	}
	return n
}

// TraceSnapshot is one published trace: a monotone sequence number (the
// ring-buffer eviction order), an optional correlation ID, and the root
// span tree.
type TraceSnapshot struct {
	Seq  int64        `json:"seq"`
	ID   string       `json:"id,omitempty"`
	Root SpanSnapshot `json:"root"`
}

// traceStripes is the number of ring-buffer lock stripes. Publishes are
// striped by sequence number, so concurrent traced queries contend on a
// stripe only one-in-traceStripes of the time.
const traceStripes = 8

type traceStripe struct {
	mu  sync.Mutex
	buf []TraceSnapshot // guarded by mu; ring of the stripe's most recent traces
}

// Tracer samples queries for tracing and retains the most recent traces
// in a bounded lock-striped ring buffer. A nil *Tracer is a valid no-op.
// Sampling is deterministic: of the Start calls observed, the 1st,
// (every+1)th, (2·every+1)th, ... are traced — no randomness, so a test
// or a replay harness sees the same queries traced every run.
type Tracer struct {
	every     int64
	calls     atomic.Int64
	seq       atomic.Int64
	perStripe int
	stripes   [traceStripes]traceStripe
}

// NewTracer creates a tracer sampling every Nth Start call (every ≤ 1
// traces all) and retaining about `capacity` recent traces (at least one
// per stripe).
func NewTracer(every, capacity int) *Tracer {
	if every < 1 {
		every = 1
	}
	per := capacity / traceStripes
	if per < 1 {
		per = 1
	}
	return &Tracer{every: int64(every), perStripe: per}
}

// Start begins a root span if this call is sampled, nil otherwise (and
// on a nil tracer). The returned span publishes itself at Finish.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	if (t.calls.Add(1)-1)%t.every != 0 {
		return nil
	}
	return &Span{name: name, start: time.Now(), tracer: t}
}

// Publish inserts a finished trace into the ring buffer, assigning its
// sequence number. Root spans call it from Finish; the explain path and
// the store's replay synthesis call it directly with snapshots they
// built themselves. No-op on a nil tracer.
func (t *Tracer) Publish(ts TraceSnapshot) {
	if t == nil {
		return
	}
	ts.Seq = t.seq.Add(1)
	st := &t.stripes[ts.Seq%traceStripes]
	st.mu.Lock()
	if len(st.buf) < t.perStripe {
		st.buf = append(st.buf, ts)
	} else {
		// Per-stripe ring: sequence numbers arrive striped, so within a
		// stripe they ascend and the slot cycles oldest-first.
		st.buf[(ts.Seq/traceStripes)%int64(t.perStripe)] = ts
	}
	st.mu.Unlock()
}

// RecentTraces returns up to n of the most recent traces, newest first.
// Nil on a nil tracer or before anything was published.
func (t *Tracer) RecentTraces(n int) []TraceSnapshot {
	if t == nil || n <= 0 {
		return nil
	}
	var out []TraceSnapshot
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		out = append(out, st.buf...)
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	if n < len(out) {
		out = out[:n]
	}
	return out
}
