// The metric catalogue: every name the benchmark reports, with its unit
// and which direction is better. BENCHMARK.json repeats this list (a test
// keeps the two in step); README.md says what each metric means and which
// end-to-end metric it should move.
//
// Per-layer names are <module>.<metric>. Sources: (T) the traced
// in-process replay, timing calls into the layer's public functions; (C)
// the child's own counters, scraped around the window; (F) the counting
// filesystem under the replay's store; (L) the load generator's clock.

package main

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

var endToEndMetrics = []metricDef{
	{"op_p50_ms", "ms", "lower"},
	{"op_p95_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"rss_peak_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayerMetrics = []metricDef{
	// pqserve: the process and net/http, seen from the client (L) and
	// from the Go runtime's allocation counters (C).
	{"pqserve.transport_us", "us", "lower"},
	{"pqserve.ready_ms", "ms", "lower"},
	{"pqserve.lookup_p50_ms", "ms", "lower"},
	{"pqserve.lookup_p99_ms", "ms", "lower"},
	{"pqserve.lookup_max_ms", "ms", "lower"},
	{"pqserve.write_p50_ms", "ms", "lower"},
	{"pqserve.write_p99_ms", "ms", "lower"},
	{"pqserve.write_stall_ms", "ms", "lower"},
	{"pqserve.alloc_bytes_per_op", "bytes", "lower"},
	{"pqserve.mallocs_per_op", "count", "lower"},
	{"pqserve.gc_cycles", "count", "lower"},

	// serve: handler, cache, batcher, admission.
	{"serve.handler_us", "us", "lower"},
	{"serve.decode_us", "us", "lower"},
	{"serve.encode_us", "us", "lower"},
	{"serve.response_bytes", "bytes", "lower"},
	{"serve.query_us", "us", "lower"},
	{"serve.overhead_us", "us", "lower"},
	{"serve.cache_hit_us", "us", "lower"},
	{"serve.unattributed_us", "us", "lower"},
	{"serve.unattributed_share", "ratio", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.cache_invalidations_per_write", "count", "lower"},
	{"serve.batch_joined_ratio", "ratio", "higher"},
	{"serve.shed_count", "count", "lower"},

	{"xmlconv.parse_us", "us", "lower"},
	{"xmlconv.parse_ns_per_node", "ns", "lower"},
	{"xmlconv.parse_allocs_per_op", "count", "lower"},

	{"profile.build_us", "us", "lower"},
	{"profile.build_ns_per_node", "ns", "lower"},
	{"profile.build_allocs_per_op", "count", "lower"},

	{"edit.log_us", "us", "lower"},

	{"core.update_us", "us", "lower"},
	{"core.delta_grams_per_editop", "count", "lower"},

	// forest: postings, planner, VP-tree.
	{"forest.lookup_us", "us", "lower"},
	{"forest.lookup_p95_us", "us", "lower"},
	{"forest.lookup_share", "ratio", "lower"},
	{"forest.lookup_us_tau01", "us", "lower"},
	{"forest.lookup_us_tau03", "us", "lower"},
	{"forest.lookup_us_tau05", "us", "lower"},
	{"forest.lookup_us_tau07", "us", "lower"},
	{"forest.lookup_allocs_per_op", "count", "lower"},
	{"forest.lookup_bytes_per_op", "bytes", "lower"},
	{"forest.topk_us_k1", "us", "lower"},
	{"forest.topk_us_k10", "us", "lower"},
	{"forest.topk_us_k25", "us", "lower"},
	{"forest.metric_build_ms", "ms", "lower"},
	{"forest.put_us", "us", "lower"},
	{"forest.update_us", "us", "lower"},
	{"forest.remove_us", "us", "lower"},
	{"forest.heap_bytes_per_gram", "bytes", "lower"},
	{"forest.candidates_per_match", "count", "lower"},
	{"forest.pruned_share", "ratio", "higher"},
	{"forest.metric_nodes_visited_per_topk", "count", "lower"},

	// store: journal, segments, the tier seam.
	{"store.put_us", "us", "lower"},
	{"store.update_us", "us", "lower"},
	{"store.journal_self_us", "us", "lower"},
	{"store.flush_ms", "ms", "lower"},
	{"store.flush_mb_per_s", "MB/s", "higher"},
	{"store.compact_ms", "ms", "lower"},
	{"store.compact_bytes_rewritten", "bytes", "lower"},
	{"store.reopen_ms", "ms", "lower"},
	{"store.tier_lookup_us", "us", "lower"},
	{"store.flush_count", "count", "lower"},
	{"store.replay_records", "count", "lower"},
	{"store.segment_count", "count", "lower"},
	{"store.journal_bytes_per_doc_byte", "ratio", "lower"},
	{"store.segment_bytes_per_doc_byte", "ratio", "lower"},
	{"store.disk_bytes_per_doc_byte", "ratio", "lower"},
	{"store.segments_probed_per_lookup", "count", "lower"},
	{"store.bloom_skip_ratio", "ratio", "higher"},
	{"store.postings_scanned_per_lookup", "count", "lower"},

	// fsio: exact counts from the counting filesystem (one client).
	{"fsio.writes_per_write_op", "count", "lower"},
	{"fsio.bytes_per_write_op", "bytes", "lower"},
	{"fsio.syncs_per_write_op", "count", "lower"},
	{"fsio.reads_per_lookup", "count", "lower"},
	{"fsio.read_bytes_per_lookup", "bytes", "lower"},

	{"obs.collector_overhead_pct", "%", "lower"},
	{"obs.trace_overhead_pct", "%", "lower"},
}

// fill makes ms hold every metric of defs: one the workload did not
// produce reads 0, with a note saying so, because the contract wants a
// number for every name on every workload.
func (ms metricSet) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := ms[d.name]; !ok {
			ms[d.name] = metric{Unit: d.unit, Note: "does not apply to this workload"}
		}
	}
}
