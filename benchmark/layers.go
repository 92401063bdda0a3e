// Turning the traced run's spans and the child's counters into the
// per-layer metrics of metrics.go.

package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"
)

// counterMetrics derives the (C) metrics from the child's counter deltas
// over the window. A counter a later change renames leaves its metric
// at 0 with a note, never an error.
func counterMetrics(w *workload, inst *instance, ms metricSet) {
	ops := float64(inst.window.attempted - inst.window.failed)
	writes := float64(len(inst.window.latencies(opKind.isWrite)))
	setRatio := func(name, unit, num, den string) {
		if v, ok := inst.ratio(num, den); ok {
			ms.set(name, v, unit)
		} else if _, have := inst.after.counters[num]; !have {
			ms[name] = metric{Unit: unit, Note: "counter " + num + " not exported"}
		}
	}
	if ops > 0 {
		ms.set("pqserve.alloc_bytes_per_op", (inst.after.allocB-inst.before.allocB)/ops, "bytes")
		ms.set("pqserve.mallocs_per_op", (inst.after.mallocs-inst.before.mallocs)/ops, "count")
	}
	ms.set("pqserve.gc_cycles", inst.after.numGC-inst.before.numGC, "count")

	if hit, ok := inst.delta("serve_cache_hit"); ok {
		if miss, _ := inst.delta("serve_cache_miss"); hit+miss > 0 {
			ms.set("serve.cache_hit_ratio", hit/(hit+miss), "ratio")
		}
	}
	if inv, ok := inst.delta("serve_cache_invalidate"); ok && writes > 0 {
		ms.set("serve.cache_invalidations_per_write", inv/writes, "count")
	}
	setRatio("serve.batch_joined_ratio", "ratio", "serve_batch_joined", "serve_requests")
	if shed, ok := inst.delta("serve_shed"); ok {
		ms.set("serve.shed_count", shed, "count")
	}

	setRatio("forest.candidates_per_match", "count", "forest_lookup_candidates_examined", "forest_lookup_matches")
	if ex, ok := inst.delta("forest_lookup_candidates_examined"); ok {
		ps, _ := inst.delta("forest_lookup_pruned_size")
		pa, _ := inst.delta("forest_lookup_pruned_abandon")
		if ex+ps+pa > 0 {
			ms.set("forest.pruned_share", (ps+pa)/(ex+ps+pa), "ratio")
		}
	}
	setRatio("forest.metric_nodes_visited_per_topk", "count", "forest_metric_nodes_visited", "forest_topk_lookups")

	if !w.durable {
		return
	}
	if f, ok := inst.delta("store_segment_flushes"); ok {
		ms.set("store.flush_count", f, "count")
	}
	if v, ok := inst.after.counters["store_journal_replay_records"]; ok {
		ms.set("store.replay_records", v, "count")
	}
	if v, ok := inst.after.counters["store_segment_count"]; ok {
		ms.set("store.segment_count", v, "count")
	}
	if live := float64(inst.liveBytes); live > 0 {
		if v, ok := inst.after.counters["store_journal_bytes"]; ok {
			ms.set("store.journal_bytes_per_doc_byte", v/live, "ratio")
		}
		if v, ok := inst.after.counters["store_segment_bytes"]; ok {
			ms.set("store.segment_bytes_per_doc_byte", v/live, "ratio")
		}
		ms.set("store.disk_bytes_per_doc_byte", float64(inst.diskBytes)/live, "ratio")
	}
	setRatio("store.segments_probed_per_lookup", "count", "forest_tier_segments_probed", "forest_lookups")
	setRatio("store.bloom_skip_ratio", "ratio", "forest_bloom_skips", "forest_bloom_checks")
	setRatio("store.postings_scanned_per_lookup", "count", "forest_tier_postings_scanned", "forest_lookups")
}

// setMedian reports the median of samples under name, with the sample
// count, when there are any.
func (ms metricSet) setMedian(name string, samples []float64, unit string) {
	if len(samples) > 0 {
		ms.setN(name, median(samples), unit, len(samples))
	}
}

// layerMetrics derives the (T) and (F) metrics from the replay.
func (tr *tracedRun) layerMetrics(inst *instance) {
	ms, rec := tr.ms, tr.rec
	span := func(name string) []float64 { return rec.durationsUS(named(name)) }

	var handler, unattributed, query, hitUS, overhead, forest []float64
	var parseNsNode, buildNsNode []float64
	forestInHandler, handlerSum := 0.0, 0.0
	byTau := map[float64][]float64{}
	byK := map[int][]float64{}
	transportKind := isLookup
	if tr.cfg.w.name == "topk_cold" {
		transportKind = isTopK
	}
	var handlerOfTransportKind []float64
	for _, t := range tr.ops {
		h := tr.us(t.request)
		handler = append(handler, h)
		if transportKind(t.op.kind) {
			handlerOfTransportKind = append(handlerOfTransportKind, h)
		}
		handlerSum += h
		sum := 0.0
		for _, s := range t.steps {
			sum += tr.us(s)
		}
		unattributed = append(unattributed, h-sum)
		if t.query < 0 {
			continue
		}
		q, f := tr.us(t.query), tr.us(t.forest)
		query = append(query, q)
		forest = append(forest, f)
		if t.cached {
			hitUS = append(hitUS, q)
		} else {
			overhead = append(overhead, q-f)
			forestInHandler += f
		}
		if t.op.kind == opTopK {
			byK[t.op.k] = append(byK[t.op.k], f)
		} else {
			byTau[t.op.tau] = append(byTau[t.op.tau], f)
		}
		if t.nodes > 0 {
			parseNsNode = append(parseNsNode, tr.us(t.parse)*1e3/float64(t.nodes))
			buildNsNode = append(buildNsNode, tr.us(t.build)*1e3/float64(t.nodes))
		}
	}
	ms.setMedian("serve.handler_us", handler, "us")
	ms.setMedian("serve.decode_us", span("json.decode"), "us")
	ms.setMedian("serve.encode_us", span("json.encode"), "us")
	ms.setMedian("serve.query_us", query, "us")
	ms.setMedian("serve.overhead_us", overhead, "us")
	ms.setMedian("serve.cache_hit_us", hitUS, "us")
	ms.setMedian("serve.unattributed_us", unattributed, "us")
	if hm := median(handler); len(unattributed) > 0 && hm > 0 {
		share := median(unattributed) / hm
		ms.set("serve.unattributed_share", share, "ratio")
		verdict := "valid"
		if share > unattributedLimit || share < -unattributedLimit {
			verdict = "NOT valid"
		}
		tr.out.Notes = append(tr.out.Notes, fmt.Sprintf(
			"breakdown %s: the replayed steps leave %.1f%% of the handler's median unexplained (limit %.0f%%)",
			verdict, share*100, unattributedLimit*100))
	}
	ms.setMedian("xmlconv.parse_us", span("xmlconv.parse"), "us")
	ms.setMedian("xmlconv.parse_ns_per_node", parseNsNode, "ns")
	ms.setMedian("profile.build_us", span("profile.build"), "us")
	ms.setMedian("profile.build_ns_per_node", buildNsNode, "ns")
	ms.setMedian("edit.log_us", span("edit.log"), "us")
	ms.setMedian("core.update_us", span("core.update"), "us")
	if tr.editOps > 0 {
		ms.set("core.delta_grams_per_editop", float64(tr.deltaGrams)/float64(tr.editOps), "count")
	}

	if len(forest) > 0 && tr.cfg.w.name != "topk_cold" {
		ms.setMedian("forest.lookup_us", forest, "us")
		ms.setN("forest.lookup_p95_us", percentile(sortedCopy(forest), 95), "us", len(forest))
	}
	if handlerSum > 0 {
		// The share of all handler time that index traversals account for:
		// a request answered from the cache contributes none.
		ms.set("forest.lookup_share", forestInHandler/handlerSum, "ratio")
	}
	for tau, name := range map[float64]string{0.1: "tau01", 0.3: "tau03", 0.5: "tau05", 0.7: "tau07"} {
		ms.setMedian("forest.lookup_us_"+name, byTau[tau], "us")
	}
	for _, k := range topKs {
		ms.setMedian(fmt.Sprintf("forest.topk_us_k%d", k), byK[k], "us")
	}
	ms.setMedian("forest.put_us", span("forest.put"), "us")
	ms.setMedian("forest.update_us", span("forest.update"), "us")
	ms.setMedian("forest.remove_us", span("forest.remove"), "us")

	if puts := span("store.put"); len(puts) > 0 {
		ms.setMedian("store.put_us", puts, "us")
		ms.set("store.journal_self_us", median(puts)-median(span("forest.put")), "us")
	}
	ms.setMedian("store.update_us", span("store.update"), "us")

	// pqserve.transport_us: what the wire, net/http and the scheduler add
	// on top of the handler, for the workload's read kind.
	if e2e := inst.window.latencies(transportKind); len(e2e) > 0 && len(handlerOfTransportKind) > 0 {
		ms.set("pqserve.transport_us", percentile(sortedCopy(e2e), 50)*1e3-median(handlerOfTransportKind), "us")
	}

	writes := 0
	for _, t := range tr.ops {
		if t.op.kind.isWrite() {
			writes++
		}
	}
	if tr.cfs != nil {
		if writes > 0 {
			ms.set("fsio.writes_per_write_op", float64(tr.writeFS.Writes)/float64(writes), "count")
			ms.set("fsio.bytes_per_write_op", float64(tr.writeFS.WriteBytes)/float64(writes), "bytes")
			ms.set("fsio.syncs_per_write_op", float64(tr.writeFS.Syncs)/float64(writes), "count")
		}
		if tr.lookups > 0 {
			ms.set("fsio.reads_per_lookup", float64(tr.lookupFS.Reads)/float64(tr.lookups), "count")
			ms.set("fsio.read_bytes_per_lookup", float64(tr.lookupFS.ReadBytes)/float64(tr.lookups), "bytes")
		}
	}
	ms.setMedian("serve.response_bytes", tr.respBytes, "bytes")
}

// allocsPerOp runs fn n times on this goroutine and returns the heap
// allocations and bytes per call. With nothing else running the counts
// repeat exactly from run to run.
func allocsPerOp(n int, fn func(i int)) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// probes are the loops that need the replicas but not the replay order:
// allocation counts per layer call, the cost of the system's own
// instrumentation, and the cost of the benchmark's.
func (tr *tracedRun) probes() error {
	var reads []*op
	for _, t := range tr.ops {
		if !t.op.kind.isWrite() {
			reads = append(reads, t.op)
		}
	}
	if len(reads) == 0 {
		return nil
	}
	n := min(len(reads), scaled(allocLoopOps, tr.cfg.scale, 16))
	xmls := make([]string, n)
	trees := make([]*Tree, n)
	bags := make([]Bag, n)
	for i := 0; i < n; i++ {
		var b lookupBody
		if err := json.Unmarshal(reads[i].body, &b); err != nil {
			return err
		}
		xmls[i] = b.XML
		t, err := parseXML(b.XML)
		if err != nil {
			return err
		}
		trees[i], bags[i] = t, buildBag(t)
	}
	a, _ := allocsPerOp(n, func(i int) { parseXML(xmls[i]) })
	tr.ms.set("xmlconv.parse_allocs_per_op", a, "count")
	a, _ = allocsPerOp(n, func(i int) { buildBag(trees[i]) })
	tr.ms.set("profile.build_allocs_per_op", a, "count")
	if tr.cfg.w.name != "topk_cold" {
		a, b := allocsPerOp(n, func(i int) { forestLookup(tr.s.forest, bags[i], reads[i].tau) })
		tr.ms.set("forest.lookup_allocs_per_op", a, "count")
		tr.ms.set("forest.lookup_bytes_per_op", b, "bytes")
	}

	// obs.collector_overhead_pct: the same traversals with the system's
	// collector and 1-in-16 tracer attached, as pqserve runs them, and
	// detached. Each query runs once unmeasured to load the processor
	// caches, then once each way, the order alternating from query to
	// query so that neither side always runs second.
	m := min(len(reads), scaled(overheadLoopOps, tr.cfg.scale, 16))
	var with, bare []float64
	for i := 0; i < m; i++ {
		o := reads[i]
		q, err := queryBagOf(o)
		if err != nil {
			return err
		}
		run := func(attached bool) float64 {
			if !attached {
				setForestCollector(tr.s.forest, nil)
				defer setForestCollector(tr.s.forest, tr.s.col)
			}
			t0 := time.Now()
			if o.kind == opTopK {
				forestTopK(tr.s.forest, q, o.k)
			} else {
				forestLookup(tr.s.forest, q, o.tau)
			}
			return float64(time.Since(t0).Nanoseconds()) / 1e3
		}
		run(true)
		if i%2 == 0 {
			with = append(with, run(true))
			bare = append(bare, run(false))
		} else {
			bare = append(bare, run(false))
			with = append(with, run(true))
		}
	}
	if b := median(bare); b > 0 {
		tr.ms.set("obs.collector_overhead_pct", (median(with)-b)/b*100, "%")
	}

	// obs.trace_overhead_pct: the benchmark's own recorder. A "replay"
	// span holds nothing but its steps, so its self time — its duration
	// minus what its children cover — is what recording them cost.
	self := selfTimes(tr.rec.spans)
	var recording, whole []float64
	for i, sp := range tr.rec.spans {
		if sp.Name == "replay" {
			recording = append(recording, float64(self[i])/1e3)
		}
	}
	for _, t := range tr.ops {
		whole = append(whole, tr.us(t.request))
	}
	if h := median(whole); h > 0 && len(recording) > 0 {
		tr.ms.set("obs.trace_overhead_pct", median(recording)/h*100, "%")
	}
	return nil
}

// storeLifecycle times, once each on S's store: a flush of whatever is
// resident, lookups with every document evicted, a compaction, and a
// close and reopen.
func (tr *tracedRun) storeLifecycle() error {
	st := tr.s.store
	var err error
	before := tr.cfs.counts()
	flush := tr.step("store.flush", -1, -1, func() { err = st.Flush() })
	if err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	wrote := tr.cfs.counts().sub(before).WriteBytes
	if wrote > 0 {
		tr.ms.set("store.flush_ms", tr.us(flush)/1e3, "ms")
		tr.ms.set("store.flush_mb_per_s", float64(wrote)/1e6/(tr.us(flush)/1e6), "MB/s")
	}

	var tier []float64
	for _, t := range tr.ops {
		if t.op.kind != opLookup || len(tier) >= scaled(allocLoopOps, tr.cfg.scale, 16) {
			continue
		}
		q, err := queryBagOf(t.op)
		if err != nil {
			return err
		}
		i := tr.step("store.tier_lookup", -1, -1, func() { forestLookup(tr.s.forest, q, t.op.tau) })
		tier = append(tier, tr.us(i))
	}
	tr.ms.setMedian("store.tier_lookup_us", tier, "us")

	before = tr.cfs.counts()
	compact := tr.step("store.compact", -1, -1, func() { err = st.Compact() })
	if err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	tr.ms.set("store.compact_ms", tr.us(compact)/1e3, "ms")
	tr.ms.set("store.compact_bytes_rewritten", float64(tr.cfs.counts().sub(before).WriteBytes), "bytes")

	var reopened *replica
	reopen := tr.step("store.reopen", -1, -1, func() {
		if err = tr.s.close(); err == nil {
			reopened, err = tr.newReplica("S", tr.cfs, true)
		}
	})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	tr.s = reopened
	tr.ms.set("store.reopen_ms", tr.us(reopen)/1e3, "ms")
	return nil
}
