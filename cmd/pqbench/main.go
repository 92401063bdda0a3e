// Command pqbench regenerates the tables and figures of the paper's
// evaluation section (§9) on synthetic workloads, plus three ablations.
// It reproduces the paper; it is not where a performance number for this
// implementation comes from — that is benchmark/ (see benchmark/README.md).
//
// Usage:
//
//	pqbench -exp all                 # everything, default scale
//	pqbench -exp fig13-lookup        # Figure 13 (left)
//	pqbench -exp fig13-update        # Figure 13 (right)
//	pqbench -exp fig14-size          # Figure 14 (left)
//	pqbench -exp fig14-update        # Figure 14 (right)
//	pqbench -exp table2              # Table 2
//	pqbench -exp ablate-index        # §8.1 anchor-index ablation
//	pqbench -exp ablate-mix          # edit-mix ablation
//	pqbench -exp ablate-pq           # (p,q) quality ablation
//
// The -scale flag multiplies the default workload sizes (0.1 for a quick
// smoke run, 4 for a long one); -seed offsets every workload's generator
// seed (0 reproduces the historical workloads). Every experiment
// cross-checks the incremental results against full rebuilds and panics on
// divergence. Any failure exits non-zero.
package main

import (
	"flag"
	"fmt"
	"os"

	"pqgram/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (see package comment)")
	scale := flag.Float64("scale", 1, "workload scale factor for the figure experiments")
	seed := flag.Int64("seed", 0, "workload seed offset (0 = historical defaults)")
	flag.Parse()
	if err := run(*exp, *scale, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "pqbench:", err)
		os.Exit(1)
	}
}

func run(exp string, scale float64, seed int64) error {
	bench.SetSeed(seed)
	s := func(v int) int {
		out := int(float64(v) * scale)
		if out < 1 {
			out = 1
		}
		return out
	}
	experiments := []struct {
		name string
		run  func() *bench.Result
	}{
		{"fig13-lookup", func() *bench.Result {
			return bench.Fig13Lookup(s(600000), []int{32, 256, 2048}, 0.7)
		}},
		{"fig13-update", func() *bench.Result {
			return bench.Fig13Update([]int{s(50000), s(100000), s(200000), s(400000), s(800000)}, 100)
		}},
		{"fig14-size", func() *bench.Result {
			return bench.Fig14Size([]int{s(25000), s(50000), s(100000), s(200000), s(400000)})
		}},
		{"fig14-update", func() *bench.Result {
			return bench.Fig14Update(s(400000), []int{1, 4, 16, 64, 256, 1024, 4096})
		}},
		{"table2", func() *bench.Result {
			return bench.Table2(s(400000), []int{1, 10, 100, 1000})
		}},
		{"ablate-index", func() *bench.Result {
			return bench.AblationAnchorIndex(s(200000), 1000)
		}},
		{"ablate-mix", func() *bench.Result {
			return bench.AblationOpMix(s(200000), 500)
		}},
		{"ablate-pq", func() *bench.Result {
			return bench.AblationPQ(s(150), 40)
		}},
	}
	known := false
	for _, e := range experiments {
		if exp == "all" || exp == e.name {
			known = true
			if err := e.run().Print(os.Stdout); err != nil {
				return err
			}
		}
	}
	if !known {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
