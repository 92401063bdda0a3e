package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"pqgram"
)

// attachStats wires a collector into the store (covering its forest and the
// journal) and the global profiling metrics, returning the collector. Used
// by the subcommands that accept -stats.
func attachStats(st *pqgram.Store) *pqgram.Collector {
	col := pqgram.NewCollector()
	st.SetCollector(col)
	pqgram.SetProfileCollector(col)
	return col
}

// printOpReport renders the collector's snapshot as an aligned text report:
// counters and gauges first, then one line per latency histogram with
// count, mean and tail quantiles, then computed values (stripe load).
func printOpReport(w io.Writer, col *pqgram.Collector) error {
	snap := col.Snapshot()
	fmt.Fprintln(w, "-- op report --")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(tw, "%s\t%d\n", name, snap.Counters[name])
	}
	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(tw, "%s\t%d\n", name, snap.Gauges[name])
	}
	names = names[:0]
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := snap.Histograms[name]
		if h.Count == 0 {
			continue
		}
		// Histograms named *_ns hold durations in nanoseconds; everything
		// else (bag sizes, ...) is a plain quantity.
		if strings.HasSuffix(name, "_ns") {
			fmt.Fprintf(tw, "%s\tn=%d mean=%s p50=%s p95=%s p99=%s max=%s\n",
				name, h.Count,
				time.Duration(int64(h.Mean)), time.Duration(h.P50),
				time.Duration(h.P95), time.Duration(h.P99), time.Duration(h.Max))
		} else {
			fmt.Fprintf(tw, "%s\tn=%d mean=%.1f p50=%d p95=%d p99=%d max=%d\n",
				name, h.Count, h.Mean, h.P50, h.P95, h.P99, h.Max)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	names = names[:0]
	for name := range snap.Values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		js, err := json.Marshal(snap.Values[name])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s %s\n", name, js)
	}
	return nil
}

// maybeReport prints the op report to stderr when -stats was given.
func maybeReport(stats bool, col *pqgram.Collector) error {
	if !stats || col == nil {
		return nil
	}
	return printOpReport(os.Stderr, col)
}
