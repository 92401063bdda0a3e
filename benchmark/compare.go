// compare: two results files side by side, judged by the bounds this
// benchmark fixed. It lives with the benchmark so that a change claiming
// a gain cannot adjust the judge along with the claim.

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// bounds are the shares of the parent's median by which an end-to-end
// metric may worsen before a change counts as a regression. They repeat
// BENCHMARK.json (a test keeps the two in step) and come from the
// selfcheck output pasted into README.md.
var bounds = map[string]float64{
	"op_p50_ms":   0.20,
	"op_p95_ms":   0.25,
	"ops_per_s":   0.20,
	"rss_peak_mb": 0.10,
	"setup_s":     0.25,
}

// higherIsBetter reports a metric's direction from the catalogue.
func higherIsBetter(name string) bool {
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range defs {
			if d.name == name {
				return d.better == "higher"
			}
		}
	}
	return false
}

// side is one results file grouped by workload, pass and metric.
type side struct {
	values map[string]map[string][]float64 // workload -> metric -> one value per run
	failed map[string]float64              // workload -> worst failed/attempted
	units  map[string]string
}

func loadSide(path string) (*side, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rf.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	s := &side{values: map[string]map[string][]float64{}, failed: map[string]float64{}, units: map[string]string{}}
	for _, r := range rf.Runs {
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			if m.Note != "" {
				continue // does not apply to the workload
			}
			s.values[r.Workload][name] = append(s.values[r.Workload][name], m.Value)
			s.units[name] = m.Unit
		}
		if r.Attempted > 0 {
			s.failed[r.Workload] = math.Max(s.failed[r.Workload], float64(r.Failed)/float64(r.Attempted))
		}
	}
	return s, nil
}

// worsening is how much b is worse than a as a share of a: positive =
// worse, whatever the metric's direction.
func worsening(name string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if higherIsBetter(name) {
		d = -d
	}
	return d
}

// verdict judges one end-to-end metric on one workload.
//
//	worse       B's median is worse than A's by more than the bound
//	better      B's median is better by more than the bound, and beyond A's own spread
//	unresolved  a side's run-to-run spread exceeds the bound, so a move
//	            within it could hide — unless every run of B beats every run of A
//	same        otherwise
func verdict(name string, a, b []float64) string {
	bound := bounds[name]
	w := worsening(name, median(a), median(b))
	if w > bound {
		return "worse"
	}
	if len(a) >= 4 && len(b) >= 4 && (spread(a) > bound || spread(b) > bound) {
		if allBeat(name, b, a) {
			return "better"
		}
		return "unresolved"
	}
	if w < -bound && (len(a) < 4 || -w > spread(a)) {
		return "better"
	}
	return "same"
}

// allBeat reports whether every value of x is better than every value of y.
func allBeat(name string, x, y []float64) bool {
	xs, ys := sortedCopy(x), sortedCopy(y)
	if higherIsBetter(name) {
		return xs[0] > ys[len(ys)-1]
	}
	return xs[len(xs)-1] < ys[0]
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := loadSide(args[0])
	if err == nil {
		var b *side
		if b, err = loadSide(args[1]); err == nil {
			if compareSides(os.Stdout, a, b) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark compare:", err)
	return 2
}

// compareSides prints the comparison and reports whether B regressed:
// any end-to-end metric worse on any workload, or a higher failed share.
func compareSides(w io.Writer, a, b *side) (regressed bool) {
	var names []string
	for wl := range a.values {
		if b.values[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	for _, wl := range names {
		fmt.Fprintf(w, "== %s\n", wl)
		fmt.Fprintf(w, "  %-14s %12s %12s %9s %7s  %s\n", "metric", "A", "B", "delta", "bound", "verdict")
		for _, d := range endToEndMetrics {
			av, bv := a.values[wl][d.name], b.values[wl][d.name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := verdict(d.name, av, bv)
			if v == "worse" {
				regressed = true
			}
			fmt.Fprintf(w, "  %-14s %12.4f %12.4f %+8.1f%% %6.0f%%  %s (%s is better; n=%d/%d)\n",
				d.name, median(av), median(bv), (median(bv)-median(av))/math.Abs(median(av))*100,
				bounds[d.name]*100, v, d.better, len(av), len(bv))
		}
		if fa, fb := a.failed[wl], b.failed[wl]; fb > fa {
			regressed = true
			fmt.Fprintf(w, "  failed share rose from %.6f to %.6f: worse\n", fa, fb)
		}
		// The per-layer numbers that moved most, to say where a change in
		// the rows above comes from.
		type move struct {
			name string
			a, b float64
			rel  float64
		}
		var moves []move
		for _, d := range perLayerMetrics {
			av, bv := a.values[wl][d.name], b.values[wl][d.name]
			if len(av) == 0 || len(bv) == 0 || median(av) == 0 {
				continue
			}
			rel := (median(bv) - median(av)) / math.Abs(median(av))
			if math.Abs(rel) >= 0.05 {
				moves = append(moves, move{d.name, median(av), median(bv), rel})
			}
		}
		sort.Slice(moves, func(i, j int) bool { return math.Abs(moves[i].rel) > math.Abs(moves[j].rel) })
		if len(moves) > 0 {
			fmt.Fprintln(w, "  per-layer metrics that moved by 5% or more:")
		}
		for _, m := range moves {
			fmt.Fprintf(w, "    %-40s %14.4f -> %14.4f %+8.1f%% %s\n", m.name, m.a, m.b, m.rel*100, a.units[m.name])
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(w, "the two files share no workload")
		return true
	}
	return regressed
}
