// Differential tests for the tracing/EXPLAIN determinism contract: for a
// fixed corpus and query the work-counter span tree is
// byte-identical across runs (durations excluded), and tracing that is
// disabled — no tracer, or a tracer that does not sample the operation —
// adds zero allocations to the lookup hot path.
package pqgram_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"pqgram"
	"pqgram/internal/forest"
	"pqgram/internal/gen"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// explainCorpus builds one deterministic 48-document XMark forest plus a
// perturbed-member query. Each call builds everything from scratch from
// the same seeds, standing in for a separate process run.
func explainCorpus(t *testing.T) (*forest.Index, *tree.Tree) {
	t.Helper()
	docs := gen.XMarkForest(4242, 48, 24000)
	f := forest.New(benchP)
	for i, d := range docs {
		if err := f.Add(fmt.Sprintf("doc-%02d", i), d); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(4243))
	query, _, err := gen.Perturb(rng, docs[24], 10, gen.DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	return f, query
}

// strippedJSON is the comparison form of an explain result: the span tree
// with durations zeroed, marshaled. Byte equality is the contract.
func strippedJSON(t *testing.T, res pqgram.ExplainResult) string {
	t.Helper()
	b, err := json.Marshal(res.Trace.StripDurations())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestExplainLookupDeterministic runs every threshold-lookup plan on two
// independently built copies of the same corpus and requires the
// work-counter trees, the rendered EXPLAIN text, the plan and the matches
// to be byte-identical between the runs. Besides one case per plan, "auto"
// is τ = 1, the top of the range the forest plans run by run.
func TestExplainLookupDeterministic(t *testing.T) {
	f1, q1 := explainCorpus(t)
	f2, q2 := explainCorpus(t)
	cases := []struct {
		name     string
		tau      float64
		wantPlan string
	}{
		{"exhaustive", 0, "exhaustive"},
		{"pruned", 0.5, "pruned"},
		{"auto", 1, "pruned"},
		{"scan-all", 1.5, "scan-all"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r1 := f1.ExplainLookup(q1, c.tau)
			r2 := f2.ExplainLookup(q2, c.tau)
			if r1.Plan != c.wantPlan {
				t.Fatalf("plan = %q, want %q", r1.Plan, c.wantPlan)
			}
			if r1.Plan != r2.Plan || len(r1.Matches) != len(r2.Matches) {
				t.Fatalf("runs disagree: plan %q/%q, %d/%d matches", r1.Plan, r2.Plan, len(r1.Matches), len(r2.Matches))
			}
			if j1, j2 := strippedJSON(t, r1), strippedJSON(t, r2); j1 != j2 {
				t.Fatalf("work-counter trees differ across runs:\n%s\nvs\n%s", j1, j2)
			}
			if s1, s2 := pqgram.FormatExplain(r1, false), pqgram.FormatExplain(r2, false); s1 != s2 {
				t.Fatalf("rendered explains differ:\n%svs\n%s", s1, s2)
			}
		})
	}
}

// TestExplainTopKDeterministic is the top-k half of the contract: the
// counters of the accumulate-and-heap scan must not depend on the order
// the query map or the touched docs are visited in.
func TestExplainTopKDeterministic(t *testing.T) {
	f1, q1 := explainCorpus(t)
	f2, q2 := explainCorpus(t)
	// Top-k always scores every tree; "auto" asks for more results than
	// the forest holds.
	cases := []struct {
		name string
		k    int
	}{
		{"exhaustive", 5},
		{"auto", 100},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r1 := f1.ExplainTopK(q1, c.k)
			r2 := f2.ExplainTopK(q2, c.k)
			if r1.Plan != "exhaustive" {
				t.Fatalf("plan = %q, want exhaustive", r1.Plan)
			}
			if j1, j2 := strippedJSON(t, r1), strippedJSON(t, r2); j1 != j2 {
				t.Fatalf("work-counter trees differ across runs:\n%s\nvs\n%s", j1, j2)
			}
			if s1, s2 := pqgram.FormatExplain(r1, false), pqgram.FormatExplain(r2, false); s1 != s2 {
				t.Fatalf("rendered explains differ:\n%svs\n%s", s1, s2)
			}
			// A second explain on the now-warm forest must still agree with
			// itself.
			r3 := f1.ExplainTopK(q1, c.k)
			r4 := f1.ExplainTopK(q1, c.k)
			if j3, j4 := strippedJSON(t, r3), strippedJSON(t, r4); j3 != j4 {
				t.Fatalf("warm runs differ:\n%s\nvs\n%s", j3, j4)
			}
		})
	}
}

// TestLookupTracingOffAllocParity is the hot-path acceptance bar: a
// collector with no tracer, and a collector whose tracer does not sample
// the operation, must both allocate exactly as much per lookup as no
// collector at all.
func TestLookupTracingOffAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; exact allocs/op only hold without it")
	}
	f, query := explainCorpus(t)
	q := profile.BuildIndex(query, benchP)

	measure := func() float64 {
		f.LookupIndex(q, 0.7) // warm scratch pools and absorb a tracer's first sample
		return testing.AllocsPerRun(200, func() {
			_ = f.LookupIndex(q, 0.7)
		})
	}

	f.SetCollector(nil)
	off := measure()

	f.SetCollector(obs.NewCollector())
	collectorOnly := measure()

	col := obs.NewCollector()
	// Sampling 1-in-2^30 with one warm-up call: the tracer is attached but
	// never samples inside the measured window.
	col.SetTracer(obs.NewTracer(1<<30, 8))
	f.SetCollector(col)
	tracerUnsampled := measure()
	f.SetCollector(nil)

	if collectorOnly != off {
		t.Errorf("collector-only lookup allocates %.1f/op, collector-off %.1f/op — instrumentation leaked onto the hot path", collectorOnly, off)
	}
	if tracerUnsampled != off {
		t.Errorf("unsampled-tracer lookup allocates %.1f/op, collector-off %.1f/op — tracing-off is no longer free", tracerUnsampled, off)
	}
}

// allocSink keeps measured results reachable so they are heap-allocated.
var allocSink []forest.Match

// TestLookupAllocsAreTheResult pins the lookup paths' allocation count:
// the accumulators and the traversal state are pooled and indexed by doc
// number, so a threshold lookup allocates exactly what appending its
// matches to a slice does — however many candidates it touched on the way
// — and a top-k lookup allocates its k-slot result once, at every k.
func TestLookupAllocsAreTheResult(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; exact allocs/op only hold without it")
	}
	f, query := explainCorpus(t)
	q := profile.BuildIndex(query, benchP)
	appendAllocs := func(n int) float64 {
		return testing.AllocsPerRun(50, func() {
			var out []forest.Match
			for i := 0; i < n; i++ {
				out = append(out, forest.Match{})
			}
			allocSink = out
		})
	}
	for _, tau := range []float64{0.2, 0.7, 1, 1.5} {
		n := len(f.LookupIndex(q, tau)) // also warms the scratch pool
		got := testing.AllocsPerRun(100, func() { allocSink = f.LookupIndex(q, tau) })
		if want := appendAllocs(n); got != want {
			t.Errorf("tau %v: lookup allocates %.1f/op, appending its %d matches %.1f", tau, got, n, want)
		}
	}
	for _, k := range []int{1, 10, 25, 100} {
		f.LookupIndexTopK(q, k)
		if got := testing.AllocsPerRun(100, func() { allocSink = f.LookupIndexTopK(q, k) }); got != 1 {
			t.Errorf("top-%d allocates %.1f/op, want 1 (the result)", k, got)
		}
	}
}
