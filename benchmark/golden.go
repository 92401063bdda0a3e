package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// goldenInputs pins the inputs of seed 1 at scale 1, per workload. If
// internal/gen or the generator here drifts, seed 1 would silently name a
// different workload and every stored baseline would be compared with
// numbers from other inputs; the run fails loudly instead.
//
//go:embed golden_inputs.json
var goldenInputs []byte

func checkGolden(w *workload, o *options, in *inputs) error {
	if o.seed != 1 || o.scale != 1 {
		return nil
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenInputs, &golden); err != nil {
		return fmt.Errorf("golden_inputs.json: %w", err)
	}
	if want := golden[w.name]; want != in.sha256 {
		return fmt.Errorf("%s: inputs of seed 1 hash to %s, golden_inputs.json has %s: the generator or internal/gen changed, "+
			"so earlier baselines no longer describe this workload; re-baseline and update golden_inputs.json in a benchmark-only change",
			w.name, in.sha256, want)
	}
	return nil
}

// inputsMain prints the inputs' SHA-256 per workload for a seed and a
// scale, in the form golden_inputs.json holds for seed 1 at scale 1.
func inputsMain(args []string) int {
	fs := flag.NewFlagSet("benchmark inputs", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed")
	scale := fs.Float64("scale", 1, "scale")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	g := newGenerator(*seed, *scale)
	hashes := make(map[string]string, len(workloads))
	for _, w := range workloads {
		hashes[w.name] = g.generate(w).sha256
	}
	data, err := json.MarshalIndent(hashes, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark inputs:", err)
		return 1
	}
	fmt.Printf("%s\n", data)
	return 0
}
