// Instrumentation of the forest index. SetCollector resolves every handle
// once into a metrics struct behind an atomic pointer, so operations
// record through preresolved handles without touching the registry. The
// pointer is never nil; with no collector attached its handles are nil
// no-ops (see package obs).

package forest

import (
	"sort"

	"pqgram/internal/obs"
)

// metrics holds the preresolved metric handles of one forest index: all
// resolved from one collector, or all nil no-ops when none is attached.
type metrics struct {
	col *obs.Collector

	lookups       *obs.Counter   // forest_lookups
	lookupNS      *obs.Histogram // forest_lookup_ns
	lookupMatches *obs.Counter   // forest_lookup_matches

	// Query-planner visibility (planner.go): how many candidate trees a
	// lookup actually touched, and how many of those the bounds killed.
	lookupCandidates    *obs.Counter // forest_lookup_candidates_examined
	lookupPrunedSize    *obs.Counter // forest_lookup_pruned_size (size window)
	lookupPrunedAbandon *obs.Counter // forest_lookup_pruned_abandon (overlap bound)

	// Storage-tier visibility (tier.go): per-segment bloom membership
	// tests and the probes they skipped, segments actually probed, and
	// tier posting entries merged into lookups.
	bloomChecks         *obs.Counter // forest_bloom_checks
	bloomSkips          *obs.Counter // forest_bloom_skips
	tierSegmentsProbed  *obs.Counter // forest_tier_segments_probed
	tierPostingsScanned *obs.Counter // forest_tier_postings_scanned

	topkLookups *obs.Counter // forest_topk_lookups (topk.go)

	joins     *obs.Counter   // forest_joins
	joinNS    *obs.Histogram // forest_join_ns
	joinPairs *obs.Counter   // forest_join_pairs

	updates          *obs.Counter   // forest_updates
	updateNS         *obs.Histogram // forest_update_ns
	updateGramsPlus  *obs.Counter   // forest_update_grams_plus
	updateGramsMinus *obs.Counter   // forest_update_grams_minus
	bagCopyTuples    *obs.Counter   // forest_bag_copy_tuples (distinct tuples TreeIndex and bagCopyLocked hand out)

	adds    *obs.Counter // forest_adds (trees added, incl. bulk)
	removes *obs.Counter // forest_removes
	puts    *obs.Counter // forest_puts
	bulkOps *obs.Counter // forest_bulk_ops (AddAll/AddIndexes batches)
}

// SetCollector attaches (or, with nil, detaches) a metrics collector. It
// may be called at any time, including while operations are in flight;
// in-flight operations keep using the handles they resolved at entry.
// Attaching also registers a computed "forest_stripe_load" metric that
// reports the distribution of distinct tuples over the postings stripes at
// snapshot time — the contention-visibility counterpart of the lock
// striping. A nil collector resolves every handle to a nil no-op.
func (f *Index) SetCollector(c *obs.Collector) {
	m := &metrics{
		col:                 c,
		lookups:             c.Counter("forest_lookups"),
		lookupNS:            c.Histogram("forest_lookup_ns"),
		lookupMatches:       c.Counter("forest_lookup_matches"),
		lookupCandidates:    c.Counter("forest_lookup_candidates_examined"),
		lookupPrunedSize:    c.Counter("forest_lookup_pruned_size"),
		lookupPrunedAbandon: c.Counter("forest_lookup_pruned_abandon"),
		bloomChecks:         c.Counter("forest_bloom_checks"),
		bloomSkips:          c.Counter("forest_bloom_skips"),
		tierSegmentsProbed:  c.Counter("forest_tier_segments_probed"),
		tierPostingsScanned: c.Counter("forest_tier_postings_scanned"),
		topkLookups:         c.Counter("forest_topk_lookups"),
		joins:               c.Counter("forest_joins"),
		joinNS:              c.Histogram("forest_join_ns"),
		joinPairs:           c.Counter("forest_join_pairs"),
		updates:             c.Counter("forest_updates"),
		updateNS:            c.Histogram("forest_update_ns"),
		updateGramsPlus:     c.Counter("forest_update_grams_plus"),
		updateGramsMinus:    c.Counter("forest_update_grams_minus"),
		bagCopyTuples:       c.Counter("forest_bag_copy_tuples"),
		adds:                c.Counter("forest_adds"),
		removes:             c.Counter("forest_removes"),
		puts:                c.Counter("forest_puts"),
		bulkOps:             c.Counter("forest_bulk_ops"),
	}
	c.RegisterFunc("forest_stripe_load", f.stripeLoad)
	f.obs.Store(m)
}

// StripeLoadStats summarizes how the distinct posting tuples spread over
// the lock stripes. A Max far above Mean means one stripe is hot and
// writers serialize there; the paper-default fingerprinting keeps the
// spread tight.
type StripeLoadStats struct {
	Stripes  int     `json:"stripes"`
	Keys     int     `json:"keys"`     // total distinct tuples
	Postings int     `json:"postings"` // total posting entries (tuple, tree) pairs
	Min      int     `json:"min"`      // distinct tuples on the lightest stripe
	Max      int     `json:"max"`
	Mean     float64 `json:"mean"`
	P99      int     `json:"p99"` // 99th percentile stripe, by distinct tuples
}

// stripeLoad reports the current postings-stripe load distribution. It
// holds the registry read lock for the whole scan, since structural
// operations write the shard maps under the registry write lock alone,
// and read-locks each stripe briefly, so a delta application waits for at
// most one stripe scan. The result is declared as `any` so it can be
// registered as a computed metric.
func (f *Index) stripeLoad() any {
	var st StripeLoadStats
	st.Stripes = numShards
	loads := make([]int, numShards)
	f.mu.RLock()
	defer f.mu.RUnlock()
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.RLock()
		loads[i] = len(s.postings)
		for _, m := range s.postings {
			st.Postings += len(m)
		}
		s.mu.RUnlock()
	}
	sort.Ints(loads)
	st.Min = loads[0]
	st.Max = loads[numShards-1]
	st.P99 = loads[(numShards*99)/100]
	for _, n := range loads {
		st.Keys += n
	}
	st.Mean = float64(st.Keys) / float64(numShards)
	return st
}
