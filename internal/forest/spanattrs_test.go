package forest_test

import (
	"math/rand"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/gen"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// sumSpanAttr sums attribute key over the spans named span ("": all spans).
func sumSpanAttr(s obs.SpanSnapshot, span, key string) int64 {
	var n int64
	if span == "" || s.Name == span {
		n = s.Attrs[key]
	}
	for _, c := range s.Children {
		n += sumSpanAttr(c, span, key)
	}
	return n
}

// tierOnlyAttrs are the run-planning attributes: the resident documents
// are read by one accumulation pass, so no other span may carry them.
var tierOnlyAttrs = []string{"pruned_abandon", "runs_pruned", "runs_finished"}

// misplacedTierAttr names the first span other than "tier" that carries
// one of tierOnlyAttrs, or returns "".
func misplacedTierAttr(s obs.SpanSnapshot) string {
	if s.Name != "tier" {
		for _, key := range tierOnlyAttrs {
			if _, ok := s.Attrs[key]; ok {
				return s.Name + "." + key
			}
		}
	}
	for _, c := range s.Children {
		if bad := misplacedTierAttr(c); bad != "" {
			return bad
		}
	}
	return ""
}

// TestSpanAttrsMatchCounters holds the tracing layer to the metrics
// registry: over a batch in which every operation is traced, each work
// attribute summed over the published span trees must equal the delta of
// the counter it mirrors. The two are recorded by separate statements, so
// nothing else notices when one of them drifts. Resident documents report
// their candidates and size-window rejections on "scan"; abandonment and
// run pruning appear on the "tier" span only.
func TestSpanAttrsMatchCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var docs []*tree.Tree
	for i := 0; i < 64; i++ { // sizes spread so the size window prunes
		docs = append(docs, gen.DBLP(int64(i%5), 30+10*i))
	}
	var qs []profile.Index
	for i := 0; i < 8; i++ {
		q, _, err := gen.Perturb(rng, docs[i*6], 3, gen.DefaultMix)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, profile.BuildIndex(q, p33))
	}
	resident, tiered, _, _ := tieredCopy(t, docs)
	lookup := func(f *forest.Index, q profile.Index) { f.LookupIndex(q, 0.4) }
	topk := func(f *forest.Index, q profile.Index) { f.LookupIndexTopK(q, 5) }
	tierAttrs := map[string]string{
		"segments_probed":  "forest_tier_segments_probed",
		"bloom_checks":     "forest_bloom_checks",
		"bloom_skips":      "forest_bloom_skips",
		"postings_scanned": "forest_tier_postings_scanned",
	}
	scored := map[string]string{
		"candidates":  "forest_lookup_candidates_examined",
		"pruned_size": "forest_lookup_pruned_size",
	}
	cases := []struct {
		name    string
		f       *forest.Index
		op      func(*forest.Index, profile.Index)
		span    string            // "tier": the in-RAM scan beside it has a postings_scanned too
		counter map[string]string // span attribute -> registry counter
	}{
		{"lookup", resident, lookup, "scan", scored},
		{"top-k", resident, topk, "scan", map[string]string{"candidates": "forest_lookup_candidates_examined"}},
		{"tier lookup", tiered, lookup, "tier", tierAttrs},
		{"tier top-k", tiered, topk, "tier", tierAttrs},
		// The tier span carries its own share of the candidate accounting,
		// so over every span the sums still meet the counters.
		{"lookup with a tier", tiered, lookup, "", map[string]string{
			"candidates":     "forest_lookup_candidates_examined",
			"pruned_size":    "forest_lookup_pruned_size",
			"pruned_abandon": "forest_lookup_pruned_abandon",
		}},
		{"top-k with a tier", tiered, topk, "", map[string]string{"candidates": "forest_lookup_candidates_examined"}},
	}
	for _, tc := range cases {
		col := obs.NewCollector()
		tr := obs.NewTracer(1, 4*len(qs)) // every op traced, none evicted
		col.SetTracer(tr)
		tc.f.SetCollector(col)
		before := col.Snapshot()
		for _, q := range qs {
			tc.op(tc.f, q)
		}
		deltas := col.Snapshot().CounterDeltas(before)
		traces := tr.RecentTraces(4 * len(qs))
		if len(traces) != len(qs) {
			t.Fatalf("%s: published %d traces, want %d", tc.name, len(traces), len(qs))
		}
		for attr, counter := range tc.counter {
			var sum int64
			for _, ts := range traces {
				sum += sumSpanAttr(ts.Root, tc.span, attr)
			}
			if sum == 0 || sum != deltas[counter] {
				t.Errorf("%s: attribute %q sums to %d, counter %s moved by %d; want equal and nonzero", tc.name, attr, sum, counter, deltas[counter])
			}
		}
		for _, ts := range traces {
			if bad := misplacedTierAttr(ts.Root); bad != "" {
				t.Errorf("%s: %s reported outside the tier span", tc.name, bad)
			}
		}
		if tc.f == resident && deltas["forest_lookup_pruned_abandon"] != 0 {
			t.Errorf("%s: a resident forest abandoned %d candidates", tc.name, deltas["forest_lookup_pruned_abandon"])
		}
	}
}
