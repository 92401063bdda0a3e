package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeEndToEnd builds the real pqserve and takes every workload
// through both passes at a small scale: set-up, window, oracle checks,
// the kill -9 and read-back on write_mix, the traced replay. Every
// metric of the catalogue must come out present and finite, and nothing
// may fail.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs pqserve")
	}
	dir := t.TempDir()
	o := options{
		workloads: "all", seed: 2, seconds: 0.9, trace: "both", scale: 0.03,
		outDir: filepath.Join(dir, "out"), dataDir: filepath.Join(dir, "data"),
	}
	outs, err := o.run(io.Discard)
	defer killAllChildren()
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2*len(workloads) {
		t.Fatalf("%d outcomes, want two per workload", len(outs))
	}
	for _, out := range outs {
		defs := endToEndMetrics
		if out.Trace {
			defs = perLayerMetrics
		}
		if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v",
				out.Workload, out.Trace, out.Correct, out.Attempted, out.Failed, out.Notes)
		}
		if len(out.Metrics) != len(defs) {
			t.Errorf("%s trace=%v: %d metrics, catalogue has %d", out.Workload, out.Trace, len(out.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := out.Metrics[d.name]
			switch {
			case !ok:
				t.Errorf("%s: %s missing", out.Workload, d.name)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: %s = %v", out.Workload, d.name, m.Value)
			case m.Unit != d.unit:
				t.Errorf("%s: %s in %q, catalogue says %q", out.Workload, d.name, m.Unit, d.unit)
			case !out.Trace && m.Value <= 0:
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", out.Workload, d.name, m.Value)
			}
		}
	}
	// What the workloads are for, visible even at this scale.
	layer := func(workload, name string) float64 {
		for _, out := range outs {
			if out.Trace && out.Workload == workload {
				return out.Metrics[name].Value
			}
		}
		t.Fatalf("no traced outcome for %s", workload)
		return 0
	}
	if v := layer("read_hot", "serve.cache_hit_ratio"); v < 0.95 {
		t.Errorf("read_hot: cache hit ratio %v, want >= 0.95", v)
	}
	if v := layer("read_segments", "store.segments_probed_per_lookup"); v <= 0 {
		t.Errorf("read_segments: %v segments probed per lookup, want > 0", v)
	}
	if v := layer("read_cold", "store.segments_probed_per_lookup"); v != 0 {
		t.Errorf("read_cold: %v segments probed per lookup, want 0", v)
	}
	if v := layer("write_mix", "fsio.syncs_per_write_op"); v < 1 {
		t.Errorf("write_mix: %v fsyncs per write with -sync, want >= 1", v)
	}
	for _, name := range []string{"results.json", "trace.write_mix.json", "write_mix.pqserve.stderr"} {
		if _, err := os.Stat(filepath.Join(o.outDir, name)); err != nil {
			t.Errorf("missing output file: %v", err)
		}
	}
	// The results file is what compare reads: a run compared with itself
	// is the same everywhere.
	side, err := loadSide(filepath.Join(o.outDir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if compareSides(io.Discard, side, side) {
		t.Error("a results file compared with itself reports a regression")
	}
}
