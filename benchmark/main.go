// Command benchmark is the repository's one trusted benchmark: it builds
// the unmodified cmd/pqserve, drives it over loopback HTTP through five
// workloads, checks every answer, and in a separate traced run replays
// the same requests in-process through each layer's public functions to
// say where the time goes. See README.md.
//
//	bash benchmark/run.sh --workload read_cold --seed 1 --seconds 9 --trace 0
//	bash benchmark/run.sh                       every workload, both passes
//	bash benchmark/run.sh selfcheck -runs 5     repeatability of this machine
//	bash benchmark/run.sh compare A.json B.json
//	bash benchmark/run.sh inputs > benchmark/golden_inputs.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// options are the flags shared by a plain run and selfcheck.
type options struct {
	workloads string
	seed      int64
	seconds   float64
	trace     string
	scale     float64
	outDir    string
	dataDir   string
	pqserve   string
}

func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.workloads, "workload", "all", "comma-separated workload names, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is derived from")
	fs.Float64Var(&o.seconds, "seconds", 9, "measured seconds per run, divided among the server processes of an untraced run")
	fs.StringVar(&o.trace, "trace", "both", "0: end-to-end metrics only; 1: per-layer metrics only; both")
	fs.Float64Var(&o.scale, "scale", 1, "multiplies corpus size and every sequence length")
	build := os.Getenv("BENCH_BUILD_DIR") // set by run.sh
	if build == "" {
		build = ".bench_build"
	}
	fs.StringVar(&o.outDir, "out", filepath.Join(build, "out"), "directory for results.json, trace.<workload>.json and the server's stderr")
	fs.StringVar(&o.dataDir, "dir", filepath.Join(build, "data"), "scratch directory for on-disk indexes; its filesystem type is recorded")
	fs.StringVar(&o.pqserve, "pqserve", os.Getenv("BENCH_PQSERVE"), "built pqserve binary (default: $BENCH_PQSERVE, else build it into -out)")
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) (code int) {
	stop := killChildrenOnSignal()
	defer stop()
	defer killAllChildren()
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "selfcheck":
			return selfcheckMain(args[1:])
		case "inputs":
			return inputsMain(args[1:])
		}
	}
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	o.register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	outs, err := o.run(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, out := range outs {
		if !out.Correct {
			return 1
		}
	}
	return 0
}

// prepare resolves the workload list and makes sure the server binary
// and the output directories exist.
func (o *options) prepare() ([]*workload, error) {
	var ws []*workload
	if o.workloads == "all" {
		ws = workloads
	} else {
		for _, name := range strings.Split(o.workloads, ",") {
			w, err := workloadByName(strings.TrimSpace(name))
			if err != nil {
				return nil, err
			}
			ws = append(ws, w)
		}
	}
	if o.trace != "0" && o.trace != "1" && o.trace != "both" {
		return nil, fmt.Errorf("-trace %q: want 0, 1 or both", o.trace)
	}
	if o.seconds <= 0 || o.scale <= 0 {
		return nil, fmt.Errorf("-seconds and -scale must be positive")
	}
	for _, d := range []string{o.outDir, o.dataDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if o.pqserve == "" {
		moduleDir := "."
		if _, err := os.Stat("benchmark/go.mod"); err == nil {
			moduleDir = "benchmark"
		}
		bin, err := filepath.Abs(filepath.Join(o.outDir, "pqserve"))
		if err != nil {
			return nil, err
		}
		if err := buildServer(moduleDir, bin); err != nil {
			return nil, err
		}
		o.pqserve = bin
	}
	return ws, nil
}

// run executes the requested passes of the requested workloads, printing
// each as it completes, and writes results.json.
func (o *options) run(stdout io.Writer) ([]*outcome, error) {
	ws, err := o.prepare()
	if err != nil {
		return nil, err
	}
	gen := newGenerator(o.seed, o.scale)
	static, err := gen.oracle()
	if err != nil {
		return nil, err
	}
	var outs []*outcome
	for _, w := range ws {
		in := gen.generate(w)
		if err := checkGolden(w, o, in); err != nil {
			return nil, err
		}
		cfg := runConfig{w: w, seed: o.seed, seconds: o.seconds, scale: o.scale,
			pqserve: o.pqserve, dataDir: o.dataDir, outDir: o.outDir}
		if o.trace != "1" {
			out, err := runUntraced(cfg, in, static)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			outs = append(outs, out)
			printOutcome(stdout, out)
		}
		if o.trace != "0" {
			out, err := runTraced(cfg, in, static)
			if err != nil {
				return nil, fmt.Errorf("%s (traced): %w", w.name, err)
			}
			outs = append(outs, out)
			printOutcome(stdout, out)
		}
	}
	if err := writeJSONFile(filepath.Join(o.outDir, "results.json"), resultsFile{Runs: outs}); err != nil {
		return nil, err
	}
	return outs, nil
}

// resultsFile is what results.json holds and what compare reads.
type resultsFile struct {
	Runs []*outcome `json:"runs"`
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
