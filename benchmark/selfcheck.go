// selfcheck: does this benchmark repeat on this machine? Two sets of
// runs of the same code, alternating, one seed per pair. For every
// workload and end-to-end metric it prints each set's median, quartiles
// and relative spread, and whether the two sets agree within the bound —
// the same arithmetic the acceptance check of the benchmark applies.

package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func selfcheckMain(args []string) int {
	var o options
	fs := flag.NewFlagSet("benchmark selfcheck", flag.ContinueOnError)
	o.register(fs)
	runs := fs.Int("runs", 5, "runs per set; seeds are -seed, -seed+1, ...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = "0"
	if _, err := o.prepare(); err != nil { // builds pqserve once for every run
		fmt.Fprintln(os.Stderr, "benchmark selfcheck:", err)
		return 1
	}
	var sets [2]resultsFile
	base := o.seed
	for i := 0; i < *runs; i++ {
		for s := range sets {
			o.seed = base + int64(i)
			fmt.Fprintf(os.Stderr, "selfcheck: set %c, seed %d\n", 'A'+s, o.seed)
			outs, err := o.run(io.Discard)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark selfcheck:", err)
				return 1
			}
			sets[s].Runs = append(sets[s].Runs, outs...)
		}
	}
	ok := true
	for s := range sets {
		path := filepath.Join(o.outDir, fmt.Sprintf("set%c.json", 'A'+s))
		if err := writeJSONFile(path, sets[s]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark selfcheck:", err)
			return 1
		}
		for _, r := range sets[s].Runs {
			ok = ok && r.Correct
		}
	}
	if !reportRepeatability(os.Stdout, sets) || !ok {
		return 1
	}
	return 0
}

// reportRepeatability prints the table and reports whether every metric
// on every workload has a spread within its bound in both sets and a
// second median no worse than the first by more than the bound.
func reportRepeatability(w io.Writer, sets [2]resultsFile) bool {
	type key struct{ workload, metric string }
	vals := [2]map[key][]float64{{}, {}}
	var order []string
	seen := map[string]bool{}
	for s := range sets {
		for _, r := range sets[s].Runs {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				order = append(order, r.Workload)
			}
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				vals[s][k] = append(vals[s][k], m.Value)
			}
		}
	}
	all := true
	fmt.Fprintf(w, "%-14s %-12s %3s | %10s %10s %10s %7s | %10s %10s %10s %7s | %7s %6s  %s\n",
		"workload", "metric", "n", "A.q1", "A.median", "A.q3", "spread", "B.q1", "B.median", "B.q3", "spread", "B vs A", "bound", "verdict")
	for _, wl := range order {
		for _, d := range endToEndMetrics {
			a, b := vals[0][key{wl, d.name}], vals[1][key{wl, d.name}]
			if len(a) < 2 || len(b) < 2 {
				continue
			}
			aq1, _, aq3 := quartiles(a)
			bq1, _, bq3 := quartiles(b)
			worse := worsening(d.name, median(a), median(b))
			bound := bounds[d.name]
			verdict := "ok"
			switch {
			case worse > bound:
				verdict = "SETS DISAGREE"
			case d.name != "setup_s" && (spread(a) > bound || spread(b) > bound):
				verdict = "SPREAD EXCEEDS BOUND"
			case d.name != "setup_s" && (spread(a) > bound/3 || spread(b) > bound/3):
				verdict = "ok (spread above a third of the bound)"
			}
			if verdict[0] != 'o' {
				all = false
			}
			fmt.Fprintf(w, "%-14s %-12s %3d | %10.4f %10.4f %10.4f %6.1f%% | %10.4f %10.4f %10.4f %6.1f%% | %+6.1f%% %5.0f%%  %s\n",
				wl, d.name, len(a), aq1, median(a), aq3, spread(a)*100, bq1, median(b), bq3, spread(b)*100,
				worse*100, bound*100, verdict)
		}
	}
	return all
}
