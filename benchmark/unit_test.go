package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	var v []float64
	for i := 1; i <= 100; i++ {
		v = append(v, float64(i))
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{3, 7}, 50); got != 3 {
		t.Errorf("percentile({3,7}, 50) = %v, want 3 (nearest rank, no interpolation)", got)
	}
	if got := percentile([]float64{3, 7}, 51); got != 7 {
		t.Errorf("percentile({3,7}, 51) = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{200, 95, true},  // rank 190, 10 beyond
		{199, 95, false}, // rank 190, 9 beyond
		{20, 50, true},   // rank 10, 10 beyond
		{19, 50, false},
		{1000, 99, true},
		{999, 99, false},
	} {
		if got := supported(tc.n, tc.p); got != tc.want {
			t.Errorf("supported(%d, p%v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// the acceptance arithmetic uses. Expected values computed with Python.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{1.2, 1.25, 1.31, 1.28, 1.22, 1.4, 1.19, 1.27, 1.3, 1.26}, 1.215, 1.265, 1.3025},
		{[]float64{4, 8}, 3, 6, 9},
	} {
		q1, q2, q3 := quartiles(tc.v)
		for i, p := range [][2]float64{{q1, tc.q1}, {q2, tc.q2}, {q3, tc.q3}} {
			if math.Abs(p[0]-p[1]) > 1e-9 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", tc.v, i, p[0], p[1])
			}
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-9 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a.inner", Start: 15, End: 25, Parent: 1}, // grandchild: not root's concern
		{Name: "b", Start: 30, End: 60, Parent: 0},       // overlaps a by 10
		{Name: "c", Start: 90, End: 120, Parent: 0},      // sticks out of the parent by 20
		{Name: "d", Start: 95, End: 98, Parent: 0},       // inside c
		{Name: "other", Start: 200, End: 230, Parent: -1},
	}
	want := []int64{
		100 - (50 + 10), // children cover [10,60] and [90,100]
		30 - 10,
		10,
		30,
		30,
		3,
		30,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *recorder
	r.end(r.begin("x", -1, 0)) // must not panic
	live := newRecorder()
	i := live.begin("x", -1, 7)
	live.end(i)
	if s := live.spans[i]; s.End < s.Start || s.Op != 7 || s.Parent != -1 {
		t.Errorf("recorded span %+v", s)
	}
}

func TestCountingFS(t *testing.T) {
	dir := t.TempDir()
	cfs := newCountingFS(osFS)
	f, err := cfs.OpenFile(filepath.Join(dir, "wal"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []string{"hello ", "world"} {
		if _, err := f.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if n, err := f.Read(buf); err != nil || n != 4 {
		t.Fatalf("read %d, %v", n, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tmp, err := cfs.CreateTemp(dir, "seg-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write([]byte("segment")); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cfs.Rename(tmp.Name(), filepath.Join(dir, "000001.seg")); err != nil {
		t.Fatal(err)
	}
	d, err := cfs.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if err := cfs.Remove(filepath.Join(dir, "wal")); err != nil {
		t.Fatal(err)
	}
	want := fsCounts{Writes: 3, WriteBytes: 18, Reads: 1, ReadBytes: 4, Syncs: 3, Opens: 2, Renames: 1, Removes: 1}
	if got := cfs.counts(); got != want {
		t.Errorf("counts = %+v, want %+v", got, want)
	}
	if _, err := cfs.OpenFile(filepath.Join(dir, "missing"), os.O_RDONLY, 0); err == nil {
		t.Error("opening a missing file succeeded")
	} else if got := cfs.counts().Opens; got != 2 {
		t.Errorf("a failed open was counted: %d opens", got)
	}
	if diff := cfs.counts().sub(want); diff != (fsCounts{}) {
		t.Errorf("sub: %+v", diff)
	}
}

const testScale = 0.03 // 8 clusters, 64 documents

func TestGeneratorDeterminism(t *testing.T) {
	digests := func(seed int64) map[string]string {
		g := newGenerator(seed, testScale)
		out := map[string]string{}
		for _, w := range workloads {
			out[w.name] = g.generate(w).sha256
		}
		return out
	}
	a, b, c := digests(7), digests(7), digests(8)
	for _, w := range workloads {
		if a[w.name] != b[w.name] {
			t.Errorf("%s: seed 7 gave %s then %s", w.name, a[w.name], b[w.name])
		}
		if a[w.name] == c[w.name] {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.name)
		}
	}
	if a["read_cold"] != a["read_segments"] {
		t.Error("read_segments must send exactly read_cold's requests")
	}
}

func TestWriteMixSchedule(t *testing.T) {
	g := newGenerator(3, testScale)
	w, _ := workloadByName("write_mix")
	in := g.generate(w)
	owner := map[string]int{}
	for c, seq := range in.measure {
		writes, kinds := 0, map[opKind]int{}
		live := map[string]bool{}
		for _, d := range g.corpus {
			live[d.id] = true
		}
		for i, o := range seq {
			if !o.kind.isWrite() {
				if o.selfID != "" && (i == 0 || seq[i-1].id != o.selfID) {
					t.Errorf("client %d op %d reads back %s, which the previous op did not write", c, i, o.selfID)
				}
				continue
			}
			writes++
			kinds[o.kind]++
			if prev, ok := owner[o.id]; ok && prev != c {
				t.Fatalf("document %s written by clients %d and %d", o.id, prev, c)
			}
			owner[o.id] = c
			switch o.kind {
			case opEdits, opDelete:
				if !live[o.id] {
					t.Fatalf("client %d op %d: %s on %s, which is not live", c, i, o.kind, o.id)
				}
			}
			live[o.id] = o.kind != opDelete
		}
		if share := float64(writes) / float64(len(seq)); share < 0.2 || share > 0.3 {
			t.Errorf("client %d: %.2f of operations are writes, want about 1 in %d", c, share, writeEvery)
		}
		if kinds[opEdits] <= kinds[opPut] || kinds[opPut] <= kinds[opDelete] {
			t.Errorf("client %d: write mix %v, want edits > puts > deletes", c, kinds)
		}
	}
}

// The oracle and the index must agree on every answer; they share only
// the definition of a document's bag.
func TestOracleAgreesWithForest(t *testing.T) {
	g := newGenerator(5, testScale)
	or, err := g.oracle()
	if err != nil {
		t.Fatal(err)
	}
	f := newBareForest()
	for _, d := range g.corpus {
		tr, err := parseXML(string(d.xml))
		if err != nil {
			t.Fatal(err)
		}
		f.Put(d.id, tr)
	}
	if len(g.corpus) != 64 {
		t.Fatalf("corpus of %d documents, want 64", len(g.corpus))
	}
	rng := g.subRNG(99)
	for i := 0; i < 48; i++ {
		xml := g.queryXML(rng, rng.Intn(len(g.trees)))
		bag, err := queryBagOf(&op{body: mustJSON(lookupBody{XML: xml})})
		if err != nil {
			t.Fatal(err)
		}
		for _, tau := range []float64{selfTau, 0.1, 0.3, 0.5, 0.7, 1} {
			o := lookupOp(xml, tau)
			if err := or.checkAgainst(&o, toMatches(forestLookup(f, bag, tau))); err != nil {
				t.Errorf("query %d tau %v: %v", i, tau, err)
			}
		}
		for _, k := range []int{1, 10, 25, 100} {
			o := topkOp(xml, k)
			if err := or.checkAgainst(&o, toMatches(forestTopK(f, bag, k))); err != nil {
				t.Errorf("query %d k %d: %v", i, k, err)
			}
		}
	}
	// And the oracle notices a wrong answer.
	o := lookupOp(string(g.corpus[0].xml), 0.5)
	if err := or.checkAgainst(&o, nil); err == nil {
		t.Error("an empty answer to a query that matches its own document passed")
	}
}

func toMatches(ms []Match) []match {
	out := make([]match, len(ms))
	for i, m := range ms {
		out[i] = match{m.TreeID, m.Distance}
	}
	return out
}

func TestCheckInvariants(t *testing.T) {
	look := &op{kind: opLookup, tau: 0.3}
	topk := &op{kind: opTopK, k: 2}
	self := &op{kind: opLookup, tau: selfTau, selfID: "d"}
	for _, tc := range []struct {
		name string
		o    *op
		ms   []match
		ok   bool
	}{
		{"sorted", look, []match{{"a", 0.1}, {"b", 0.1}, {"c", 0.2}}, true},
		{"empty", look, nil, true},
		{"distance order", look, []match{{"a", 0.2}, {"b", 0.1}}, false},
		{"id order on ties", look, []match{{"b", 0.1}, {"a", 0.1}}, false},
		{"duplicate", look, []match{{"a", 0.1}, {"a", 0.1}}, false},
		{"above tau", look, []match{{"a", 0.31}}, false},
		{"too many", topk, []match{{"a", 0}, {"b", 0.5}, {"c", 0.6}}, false},
		{"k results", topk, []match{{"a", 0}, {"b", 0.5}}, true},
		{"read-back present", self, []match{{"c", 0}, {"d", 0}}, true},
		{"read-back missing", self, []match{{"c", 0}}, false},
		{"NaN", topk, []match{{"a", math.NaN()}}, false},
	} {
		if err := checkInvariants(tc.o, tc.ms); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok = %v", tc.name, err, tc.ok)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	noisy := []float64{0.8, 1.3, 1.0, 0.7, 1.2}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	for _, tc := range []struct {
		name, metric string
		a, b         []float64
		want         string
	}{
		{"same", "op_p50_ms", steady, scale(steady, 1.03), "same"},
		{"worse", "op_p50_ms", steady, scale(steady, 1.3), "worse"},
		{"better", "op_p50_ms", steady, scale(steady, 0.7), "better"},
		{"higher is better", "ops_per_s", steady, scale(steady, 1.3), "better"},
		{"throughput drop", "ops_per_s", steady, scale(steady, 0.7), "worse"},
		{"noise hides it", "op_p50_ms", noisy, scale(noisy, 0.97), "unresolved"},
		{"noisy but every run wins", "op_p50_ms", noisy, scale(steady, 0.5), "better"},
		{"single runs", "op_p50_ms", []float64{1}, []float64{1.05}, "same"},
	} {
		if got := verdict(tc.metric, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// BENCHMARK.json is what the driver reads; the catalogue in metrics.go,
// the workload list and the bounds in compare.go are what the program
// uses. They must say the same thing, within the contract's limits.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jm `json:"end_to_end"`
		PerLayer []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workload.go", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, workload.go has %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %s: name or why (%d chars) outside the contract's limits", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go has %+v", kind, i, m, w)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %s (%s): outside the contract's limits", kind, m.Name, m.Unit)
			}
			if bounded {
				if m.Bound == nil || *m.Bound != bounds[m.Name] || *m.Bound <= 0 || *m.Bound > 0.25 {
					t.Errorf("%s: bound %v in BENCHMARK.json, %v in compare.go, and it must be in (0, 0.25]", m.Name, m.Bound, bounds[m.Name])
				}
			} else if m.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics, true)
	check("per_layer", b.PerLayer, perLayerMetrics, false)
	if len(b.PerLayer) > 128 || len(data) > 64<<10 {
		t.Errorf("%d per-layer metrics, %d bytes: over the contract's limits", len(b.PerLayer), len(data))
	}
	if !reflect.DeepEqual(b.Paths, []string{"benchmark"}) || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenInputs, &golden); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(golden[w.name]) != 64 {
			t.Errorf("golden_inputs.json has no sha256 for %s", w.name)
		}
	}
}
