// Instrumentation of the store: journal append/replay counts, bytes and
// latencies, segment lifecycle counters (flushes, merges, compactions) and shape
// gauges (segment count and bytes, resident vs evicted documents). Like
// the forest, the store resolves its collector once into preallocated
// handles behind a pointer that is never nil; with no collector attached
// the handles are nil no-ops (see package obs).

package store

import (
	"pqgram/internal/obs"
)

// storeMetrics holds the preresolved metric handles of one store.
type storeMetrics struct {
	col *obs.Collector

	appends     *obs.Counter   // store_journal_appends
	appendBytes *obs.Counter   // store_journal_append_bytes
	appendNS    *obs.Histogram // store_journal_append_ns

	replays       *obs.Counter   // store_journal_replays
	replayRecords *obs.Counter   // store_journal_replay_records
	replayBytes   *obs.Counter   // store_journal_replay_bytes
	replayNS      *obs.Histogram // store_journal_replay_ns

	// Recovery-anomaly counters: what the open had to drop to get back to
	// a consistent state. All zero on a clean reopen.
	replayTorn      *obs.Counter // store_replay_torn_bytes
	replaySkipped   *obs.Counter // store_replay_skipped_records
	replayStale     *obs.Counter // store_replay_stale_discards
	replayResets    *obs.Counter // store_replay_journal_resets
	replayDiscarded *obs.Counter // store_replay_discarded_bytes

	flushes     *obs.Counter   // store_segment_flushes
	flushedDocs *obs.Counter   // store_segment_flushed_docs
	flushNS     *obs.Histogram // store_segment_flush_ns
	compactions *obs.Counter   // store_segment_compactions
	compactNS   *obs.Histogram // store_segment_compact_ns

	// Merges (tier merges and compactions) and what they rewrote: with the
	// flushed documents, the store's write amplification.
	merges     *obs.Counter // store_merges
	mergeDocs  *obs.Counter // store_merge_docs
	mergeBytes *obs.Counter // store_merge_bytes

	segCount     *obs.Gauge // store_segment_count (live segments)
	segBytes     *obs.Gauge // store_segment_bytes (sum of live segment files)
	residentDocs *obs.Gauge // store_resident_docs (memtable population)
	evictedDocs  *obs.Gauge // store_evicted_docs (segment-served population)
	journalBytes *obs.Gauge // store_journal_bytes (current journal length)
}

// SetCollector attaches (or, with nil, detaches) a metrics collector to
// the store and to its in-memory forest; a nil collector resolves every
// handle to a nil no-op. The journal replay that OpenSegmented performed
// is published into the replay metrics on first attach. Attach a
// collector once per store handle; re-attaching the same collector would
// re-publish the replay numbers.
func (s *Segmented) SetCollector(c *obs.Collector) {
	s.forest.SetCollector(c)
	m := &storeMetrics{
		col:             c,
		appends:         c.Counter("store_journal_appends"),
		appendBytes:     c.Counter("store_journal_append_bytes"),
		appendNS:        c.Histogram("store_journal_append_ns"),
		replays:         c.Counter("store_journal_replays"),
		replayRecords:   c.Counter("store_journal_replay_records"),
		replayBytes:     c.Counter("store_journal_replay_bytes"),
		replayNS:        c.Histogram("store_journal_replay_ns"),
		replayTorn:      c.Counter("store_replay_torn_bytes"),
		replaySkipped:   c.Counter("store_replay_skipped_records"),
		replayStale:     c.Counter("store_replay_stale_discards"),
		replayResets:    c.Counter("store_replay_journal_resets"),
		replayDiscarded: c.Counter("store_replay_discarded_bytes"),
		flushes:         c.Counter("store_segment_flushes"),
		flushedDocs:     c.Counter("store_segment_flushed_docs"),
		flushNS:         c.Histogram("store_segment_flush_ns"),
		compactions:     c.Counter("store_segment_compactions"),
		compactNS:       c.Histogram("store_segment_compact_ns"),
		merges:          c.Counter("store_merges"),
		mergeDocs:       c.Counter("store_merge_docs"),
		mergeBytes:      c.Counter("store_merge_bytes"),
		segCount:        c.Gauge("store_segment_count"),
		segBytes:        c.Gauge("store_segment_bytes"),
		residentDocs:    c.Gauge("store_resident_docs"),
		evictedDocs:     c.Gauge("store_evicted_docs"),
		journalBytes:    c.Gauge("store_journal_bytes"),
	}
	r := s.recovery
	if r != (RecoveryInfo{}) {
		m.replays.Inc()
		m.replayRecords.Add(r.Records)
		m.replayBytes.Add(r.Bytes)
		m.replayNS.Observe(r.Duration.Nanoseconds())
		m.replayTorn.Add(r.TornBytes)
		m.replaySkipped.Add(r.SkippedRecords)
		m.replayDiscarded.Add(r.DiscardedBytes)
		if r.StaleJournal {
			m.replayStale.Inc()
		}
		if r.JournalReset {
			m.replayResets.Inc()
		}
		c.Event("journal replayed",
			"path", s.path,
			"records", r.Records,
			"bytes", r.Bytes,
			"torn_bytes", r.TornBytes,
			"skipped_records", r.SkippedRecords,
			"stale", r.StaleJournal,
			"dur", r.Duration)
		// The replay happened inside OpenSegmented, before any collector
		// (or tracer) could exist, so its trace is synthesized here from
		// RecoveryInfo and published with the recorded wall time.
		if tr := c.Tracer(); tr != nil {
			sp := obs.StartSpan("store.replay")
			sp.SetAttr("records", r.Records)
			sp.SetAttr("bytes", r.Bytes)
			sp.SetAttr("torn_bytes", r.TornBytes)
			sp.SetAttr("skipped_records", r.SkippedRecords)
			sp.SetAttr("discarded_bytes", r.DiscardedBytes)
			sp.SetAttr("stale_journal", boolAttr(r.StaleJournal))
			sp.SetAttr("journal_reset", boolAttr(r.JournalReset))
			sp.FinishWithDuration(r.Duration)
			tr.Publish(obs.TraceSnapshot{Root: sp.Snapshot()})
		}
	}
	if n, err := s.JournalSize(); err == nil {
		m.journalBytes.Set(n)
	}
	s.publishGauges(m)
	s.obs.Store(m)
}

// publishGauges refreshes the shape gauges from the current bookkeeping.
func (s *Segmented) publishGauges(m *storeMetrics) {
	s.mu.RLock()
	var bytes int64
	for _, sg := range s.segs {
		bytes += sg.size
	}
	m.segCount.Set(int64(len(s.segs)))
	m.segBytes.Set(bytes)
	m.residentDocs.Set(int64(len(s.dirty)))
	m.evictedDocs.Set(int64(len(s.loc)))
	s.mu.RUnlock()
}

// boolAttr encodes a recovery flag as a 0/1 span attribute.
func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
