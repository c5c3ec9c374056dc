// Command benchmark is the repository's benchmark: eight workloads over
// the checker stack (model, check, store, reduce, dist, lowerbound,
// sweep, serve), each layer driven only through its exported functions.
// README.md says why each workload exists and what each metric means;
// BENCHMARK.json at the repository root names them for the driver.
//
// One workload, as the driver runs it (from the repository root):
//
//	bash benchmark/run.sh --workload explore-spill --seed 7 --seconds 12 --trace 0
//
// All workloads, interleaved, with the full human-readable report:
//
//	bash benchmark/run.sh            # end-to-end metrics
//	bash benchmark/run.sh -trace 1   # plus per-layer metrics and benchmark/out/trace.json
//	bash benchmark/run.sh -selfcheck # two sets back to back, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload for -seconds (default: all of them, at their fixed repetition counts)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs: input permutations and the serve-mix request stream")
	flag.IntVar(&cfg.seconds, "seconds", 12, "with -workload: measure for about this many seconds (another repetition starts while half of it still fits)")
	flag.IntVar(&cfg.trace, "trace", 0, "1: the traced pass (per-layer metrics and a Chrome trace under -out); 0: end-to-end metrics")
	flag.BoolVar(&cfg.selfcheck, "selfcheck", false, "run every workload twice over and fail if any end-to-end median moves by more than its bound")
	flag.BoolVar(&cfg.smoke, "smoke", false, "budgets ÷ 50 and 40 requests: every workload end to end in about a second")
	flag.StringVar(&cfg.out, "out", filepath.Join("benchmark", "out"), "directory for traces and scratch files (inside the checkout)")
	rep := flag.Int("rep", -1, "internal: run repetition N of -workload in this process and print its result")
	flag.Parse()
	if flag.NArg() > 0 || cfg.trace < 0 || cfg.trace > 1 || cfg.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}

	if *rep >= 0 {
		os.Exit(childMain(cfg))
	}
	var ok bool
	switch {
	case cfg.workload != "":
		ok = runOne(cfg)
	case cfg.selfcheck:
		ok = runSelfcheck(cfg)
	default:
		ok = runAll(cfg)
	}
	if !ok {
		os.Exit(1)
	}
}

// config is the parsed command line.
type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	selfcheck bool
	smoke     bool
	out       string
}

func (c config) scale() scale {
	if c.smoke {
		return smoke
	}
	return full
}

// childMain runs one repetition in this process and prints its result
// as one JSON line. The exit code says only whether the repetition ran;
// a wrong verdict is in the result.
func childMain(cfg config) int {
	w := findWorkload(cfg.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", cfg.workload)
		return 2
	}
	scratch := filepath.Join(cfg.out, "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(scratch, w.name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	res := runRep(w, cfg.scale(), cfg.seed, cfg.trace == 1, dir)
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}
