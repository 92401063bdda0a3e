package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"pqgram"
)

// runExplain runs one query with tracing forced on and renders the plan
// decision plus the per-stage work counters as an indented tree (EXPLAIN
// ANALYZE-style). Without -timings the output carries only work counters
// and is byte-identical across runs for the same index and query, so it
// is safe to diff in tests and docs; -timings appends each
// stage's wall time. -json emits the structured ExplainResult instead.
func runExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	idxPath := fs.String("index", "", "index file")
	tau := fs.Float64("tau", 0, "threshold lookup: explain dist < tau")
	k := fs.Int("k", 0, "top-k lookup: explain the k nearest")
	timings := fs.Bool("timings", false, "include per-stage wall time (output no longer run-to-run stable)")
	asJSON := fs.Bool("json", false, "emit the structured ExplainResult as JSON")
	fs.Parse(args)
	if *idxPath == "" || fs.NArg() != 1 || (*tau <= 0) == (*k <= 0) {
		return fmt.Errorf("explain needs -index, exactly one query document, and exactly one of -tau/-k")
	}
	st, err := pqgram.OpenStore(*idxPath)
	if err != nil {
		return err
	}
	defer st.Close()
	f := st.Forest()
	q, err := parseDoc(fs.Arg(0))
	if err != nil {
		return err
	}
	var res pqgram.ExplainResult
	if *k > 0 {
		res = f.ExplainTopK(q, *k)
	} else {
		res = f.ExplainLookup(q, *tau)
	}
	if *asJSON {
		if !*timings {
			res.Trace = res.Trace.StripDurations()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Print(pqgram.FormatExplain(res, *timings))
	for _, m := range res.Matches {
		fmt.Printf("%.4f  %s\n", m.Distance, m.TreeID)
	}
	return nil
}
