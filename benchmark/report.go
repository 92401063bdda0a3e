// Output: a table for people, and as the last line of each run the one
// JSON object the benchmark contract defines.

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// contractLine is the machine-readable result of one run.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printMetrics(w io.Writer, ms metricSet) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(w, "  %-40s %14.4f %-6s", n, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		if m.Note != "" {
			fmt.Fprintf(w, "  (%s)", m.Note)
		}
		fmt.Fprintln(w)
	}
}

func printOutcome(w io.Writer, o *outcome) {
	pass := "end-to-end, untraced"
	if o.Trace {
		pass = "per-layer, traced"
	}
	fmt.Fprintf(w, "== %s (%s)  seed=%d seconds=%g scale=%g inputs_sha256=%s\n",
		o.Workload, pass, o.Seed, o.Seconds, o.Scale, o.InputsSHA)
	e := o.Env
	fmt.Fprintf(w, "   nproc=%d GOMAXPROCS=%d %s kernel=%s data-dir-fs=%s\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Kernel, e.DataDirFS)
	printMetrics(w, o.Metrics)
	if len(o.Diagnostics) > 0 {
		fmt.Fprintln(w, "  -- diagnostics (not gated) --")
		printMetrics(w, o.Diagnostics)
	}
	for _, n := range o.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", o.Attempted, o.Failed, o.Correct)
	line := contractLine{Correct: o.Correct, Attempted: o.Attempted, Failed: o.Failed,
		Metrics: make(map[string]contractValue, len(o.Metrics))}
	for n, m := range o.Metrics {
		line.Metrics[n] = contractValue{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		// A NaN or an infinity: a metric that could not be measured. The
		// run must not pass for a result.
		fmt.Fprintf(w, "  error: result not encodable: %v\n", err)
		o.Correct = false
		return
	}
	fmt.Fprintf(w, "%s\n", data)
}
