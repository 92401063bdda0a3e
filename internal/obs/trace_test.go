package obs

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestNilSpanNoOp proves the traced-off contract: every Span method on a
// nil receiver is a valid no-op, so instrumented code never nil-guards.
func TestNilSpanNoOp(t *testing.T) {
	var sp *Span
	sp.SetAttr("k", 1)
	sp.SetTraceID("id")
	sp.Finish()
	sp.FinishWithDuration(time.Second)
	if c := sp.Child("child"); c != nil {
		t.Fatalf("nil.Child() = %v, want nil", c)
	}
	if got := sp.Snapshot(); !reflect.DeepEqual(got, SpanSnapshot{}) {
		t.Fatalf("nil.Snapshot() = %+v, want zero", got)
	}
}

func TestSpanTreeSnapshot(t *testing.T) {
	sp := StartSpan("root")
	sp.SetAttr("plan", 2)
	sp.SetAttr("plan", 3) // replace, not append
	sp.SetAttr("work", 12)
	gen := sp.Child("generate")
	gen.SetAttr("postings", 100)
	gen.Finish()
	verify := sp.Child("verify")
	verify.SetAttr("candidates", 4)
	verify.Finish()
	sp.Finish()
	sp.Finish() // idempotent

	got := sp.Snapshot()
	if got.Name != "root" || got.Attrs["plan"] != 3 || got.Attrs["work"] != 12 {
		t.Fatalf("root snapshot = %+v", got)
	}
	if len(got.Children) != 2 || got.Children[0].Name != "generate" || got.Children[1].Name != "verify" {
		t.Fatalf("children = %+v", got.Children)
	}
	if got.Children[0].Attrs["postings"] != 100 || got.Children[1].Attrs["candidates"] != 4 {
		t.Fatalf("child attrs = %+v", got.Children)
	}
	if got.SumAttr("work") != 12 || got.SumAttr("postings") != 100 || got.SumAttr("nosuch") != 0 {
		t.Fatalf("SumAttr: work=%d postings=%d", got.SumAttr("work"), got.SumAttr("postings"))
	}
}

// TestFinishWithDurationIdempotent pins the explicit-duration form used by
// the synthesized store.replay / store.append traces: the first finish
// wins and later ones (including plain Finish) do not overwrite it.
func TestFinishWithDurationIdempotent(t *testing.T) {
	sp := StartSpan("x")
	sp.FinishWithDuration(42 * time.Nanosecond)
	sp.FinishWithDuration(7 * time.Hour)
	sp.Finish()
	if got := sp.Snapshot().DurationNS; got != 42 {
		t.Fatalf("DurationNS = %d, want 42", got)
	}
}

// TestStripDurations proves the comparison form: every duration zeroed,
// everything else intact, and the copy deep enough that mutating it does
// not touch the original.
func TestStripDurations(t *testing.T) {
	sp := StartSpan("root")
	sp.SetAttr("n", 1)
	c := sp.Child("c")
	c.SetAttr("m", 2)
	c.FinishWithDuration(time.Millisecond)
	sp.FinishWithDuration(time.Second)

	orig := sp.Snapshot()
	stripped := orig.StripDurations()
	if stripped.DurationNS != 0 || stripped.Children[0].DurationNS != 0 {
		t.Fatalf("durations survive StripDurations: %+v", stripped)
	}
	if stripped.Attrs["n"] != 1 || stripped.Children[0].Attrs["m"] != 2 {
		t.Fatalf("attrs lost: %+v", stripped)
	}
	stripped.Attrs["n"] = 99
	stripped.Children[0].Attrs["m"] = 99
	if orig.Attrs["n"] != 1 || orig.Children[0].Attrs["m"] != 2 {
		t.Fatal("StripDurations shares maps with the original")
	}
	a, _ := json.Marshal(sp.Snapshot().StripDurations())
	b, _ := json.Marshal(stripped)
	if string(a) == string(b) {
		t.Fatal("mutated copy still marshals equal — deep copy broken")
	}
}

// TestTracerSampling pins the deterministic every-Nth contract: of the
// Start calls, numbers 1, every+1, 2·every+1, ... are sampled.
func TestTracerSampling(t *testing.T) {
	tr := NewTracer(3, 64)
	var sampled []int
	for i := 1; i <= 10; i++ {
		if sp := tr.Start("q"); sp != nil {
			sampled = append(sampled, i)
			sp.Finish()
		}
	}
	if want := []int{1, 4, 7, 10}; !reflect.DeepEqual(sampled, want) {
		t.Fatalf("sampled calls %v, want %v", sampled, want)
	}
	// every < 1 clamps to trace-everything.
	all := NewTracer(0, 64)
	for i := 0; i < 5; i++ {
		if all.Start("q") == nil {
			t.Fatalf("every=0 tracer skipped call %d", i+1)
		}
	}
}

func TestNilTracerNoOp(t *testing.T) {
	var tr *Tracer
	if sp := tr.Start("q"); sp != nil {
		t.Fatalf("nil.Start() = %v, want nil", sp)
	}
	tr.Publish(TraceSnapshot{})
	if got := tr.RecentTraces(5); got != nil {
		t.Fatalf("nil.RecentTraces() = %v, want nil", got)
	}
}

// TestRootSpanPublishes proves the root-span lifecycle: a sampled span
// publishes its snapshot (with trace ID) into the ring at Finish.
func TestRootSpanPublishes(t *testing.T) {
	tr := NewTracer(1, 64)
	sp := tr.Start("forest.lookup")
	sp.SetTraceID("req-000001")
	sp.SetAttr("candidates", 9)
	sp.Finish()

	got := tr.RecentTraces(10)
	if len(got) != 1 {
		t.Fatalf("RecentTraces = %d traces, want 1", len(got))
	}
	ts := got[0]
	if ts.Seq != 1 || ts.ID != "req-000001" || ts.Root.Name != "forest.lookup" || ts.Root.Attrs["candidates"] != 9 {
		t.Fatalf("published trace = %+v", ts)
	}
}

// TestRingEviction fills the striped ring far past capacity and checks
// that RecentTraces returns the newest traces, newest first, and that the
// retained set is exactly the highest sequence numbers each stripe row
// can hold.
func TestRingEviction(t *testing.T) {
	const capacity = 16 // 2 slots per stripe
	tr := NewTracer(1, capacity)
	const published = 100
	for i := 0; i < published; i++ {
		sp := tr.Start("q")
		sp.SetAttr("i", int64(i))
		sp.Finish()
	}
	got := tr.RecentTraces(published)
	if len(got) != capacity {
		t.Fatalf("retained %d traces, want %d", len(got), capacity)
	}
	for i, ts := range got {
		if want := int64(published - i); ts.Seq != want {
			t.Fatalf("trace %d has seq %d, want %d (newest first)", i, ts.Seq, want)
		}
	}
	// Truncation: asking for fewer returns the newest ones only.
	top := tr.RecentTraces(3)
	if len(top) != 3 || top[0].Seq != published || top[2].Seq != published-2 {
		t.Fatalf("RecentTraces(3) = %+v", top)
	}
	if tr.RecentTraces(0) != nil {
		t.Fatal("RecentTraces(0) != nil")
	}
}

// TestPublishExternalSnapshot covers the direct-Publish path used by the
// store's synthesized replay trace and the server's explain handler.
func TestPublishExternalSnapshot(t *testing.T) {
	tr := NewTracer(4, 8) // sampling must not gate direct publishes
	sp := StartSpan("store.replay")
	sp.SetAttr("records", 12)
	sp.FinishWithDuration(time.Millisecond)
	tr.Publish(TraceSnapshot{ID: "boot", Root: sp.Snapshot()})
	tr.Publish(TraceSnapshot{ID: "boot2", Root: sp.Snapshot()})
	got := tr.RecentTraces(2)
	if len(got) != 2 || got[0].ID != "boot2" || got[1].ID != "boot" || got[1].Root.Attrs["records"] != 12 {
		t.Fatalf("RecentTraces = %+v", got)
	}
}

// TestCollectorStartTrace walks the full attach path: no collector, no
// tracer, tracer attached, tracer detached.
func TestCollectorStartTrace(t *testing.T) {
	var nilCol *Collector
	if sp := nilCol.StartTrace("q"); sp != nil {
		t.Fatal("nil collector produced a span")
	}
	if nilCol.Tracer() != nil {
		t.Fatal("nil collector has a tracer")
	}
	nilCol.SetTracer(NewTracer(1, 8)) // must not panic

	col := NewCollector()
	if sp := col.StartTrace("q"); sp != nil {
		t.Fatal("collector without tracer produced a span")
	}
	tr := NewTracer(1, 8)
	col.SetTracer(tr)
	if col.Tracer() != tr {
		t.Fatal("Tracer() does not return the attached tracer")
	}
	sp := col.StartTrace("q")
	if sp == nil {
		t.Fatal("collector with tracer produced no span")
	}
	sp.Finish()
	if got := tr.RecentTraces(1); len(got) != 1 || got[0].Root.Name != "q" {
		t.Fatalf("RecentTraces = %+v", got)
	}
	col.SetTracer(nil)
	if sp := col.StartTrace("q"); sp != nil {
		t.Fatal("detached tracer still produces spans")
	}
}

// TestTracerConcurrent hammers Start/Finish/Publish/RecentTraces from
// many goroutines; the -race run proves the striped ring is safe and the
// final sequence number accounts for every publish.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(2, 32)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if sp := tr.Start("q"); sp != nil {
					sp.SetAttr("n", 1)
					sp.Finish()
				}
				if i%32 == 0 {
					tr.RecentTraces(8)
				}
			}
		}()
	}
	wg.Wait()
	published := tr.seq.Load()
	if want := int64(workers * perWorker / 2); published != want {
		t.Fatalf("published %d traces, want %d (every=2 of %d starts)", published, want, workers*perWorker)
	}
	got := tr.RecentTraces(1000)
	if len(got) != 32 {
		t.Fatalf("retained %d traces, want capacity 32", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Seq <= got[i].Seq {
			t.Fatalf("RecentTraces not strictly newest-first at %d: %d then %d", i, got[i-1].Seq, got[i].Seq)
		}
	}
}

// TestUnfinishedSnapshot documents that snapshotting a live span reports
// elapsed-so-far rather than zero.
func TestUnfinishedSnapshot(t *testing.T) {
	sp := StartSpan("live")
	time.Sleep(time.Millisecond)
	if got := sp.Snapshot().DurationNS; got <= 0 {
		t.Fatalf("unfinished span DurationNS = %d, want > 0", got)
	}
}
