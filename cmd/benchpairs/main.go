// Command benchpairs runs the repository benchmark on two checkouts — a
// parent commit and the change in the working directory — as alternating
// pairs, the way a
// performance claim has to be measured on a small shared box: one
// workload, one seed, run after run, the side that goes first swapping
// every pair so slow drift of the machine lands on both. It prints, per
// end-to-end metric, each side's median and quartiles and how many pairs
// the change won, and appends every run's driver record (the last line
// `benchmark/run.sh --workload` prints) to a JSON-lines file, so the
// numbers a PR reports are committed with it.
//
//	go run ./cmd/benchpairs -parent ../parent -workload explore-levelsync -n 10 -seed 7 -out BENCH_21.json
//
// It only runs `bash benchmark/run.sh` in each checkout and reads
// BENCHMARK.json for the metrics' directions; it knows nothing else about
// the benchmark.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// driverRecord is the last line of a `--workload` run.
type driverRecord struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// pairRecord is one line of the output file.
type pairRecord struct {
	Workload string          `json:"workload"`
	Seed     int             `json:"seed"`
	Pair     int             `json:"pair"`
	Side     string          `json:"side"`  // "parent" or "change"
	First    bool            `json:"first"` // this side ran first in its pair
	Commit   string          `json:"commit,omitempty"`
	When     string          `json:"when"`
	Result   json.RawMessage `json:"result"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchpairs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	parent := fs.String("parent", "", "checkout of the parent commit (required)")
	workload := fs.String("workload", "", "benchmark workload name (required)")
	n := fs.Int("n", 10, "number of parent/change pairs")
	seed := fs.Int("seed", 7, "workload seed")
	out := fs.String("out", "", "JSON-lines file every run's record is appended to (optional)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parent == "" || *workload == "" || *n < 1 {
		return errors.New("usage: benchpairs -parent DIR -workload NAME [-n 10] [-seed 7] [-out FILE]")
	}
	specs, err := endToEnd("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sink io.Writer = io.Discard
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		sink = f
	}

	dirs := map[string]string{"parent": *parent, "change": "."}
	values := map[string]map[string][]float64{"parent": {}, "change": {}} // side -> metric -> per pair
	for pair := 0; pair < *n; pair++ {
		order := []string{"parent", "change"}
		if pair%2 == 1 {
			order = []string{"change", "parent"}
		}
		for i, side := range order {
			raw, rec, err := runOnce(dirs[side], *workload, *seed, stderr)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", pair, side, err)
			}
			line, err := json.Marshal(pairRecord{Workload: *workload, Seed: *seed, Pair: pair, Side: side, First: i == 0,
				Commit: commitOf(dirs[side]), When: time.Now().UTC().Format(time.RFC3339), Result: raw})
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(sink, "%s\n", line); err != nil {
				return err
			}
			for name, m := range rec.Metrics {
				values[side][name] = append(values[side][name], m.Value)
			}
			fmt.Fprintf(stderr, "pair %d %-6s wall_s %.3f\n", pair, side, rec.Metrics["wall_s"].Value)
		}
	}
	report(stdout, *workload, *seed, specs, values["parent"], values["change"])
	return nil
}

// endToEnd reads the end-to-end metric declarations of a BENCHMARK.json.
func endToEnd(path string) ([]metricSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return decl.EndToEnd, nil
}

// runOnce runs one workload in one checkout, at the run length the
// benchmark's driver uses, and returns its driver record.
func runOnce(dir, workload string, seed int, stderr io.Writer) (json.RawMessage, driverRecord, error) {
	cmd := exec.Command("bash", "benchmark/run.sh", "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", "12", "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, driverRecord{}, fmt.Errorf("benchmark/run.sh in %s: %w", dir, err)
	}
	lines := bytes.Split(bytes.TrimSpace(outBytes), []byte("\n"))
	last := lines[len(lines)-1]
	var rec driverRecord
	if err := json.Unmarshal(last, &rec); err != nil {
		return nil, rec, fmt.Errorf("last output line is not the driver record: %w", err)
	}
	if !rec.Correct || rec.Failed > 0 {
		return nil, rec, fmt.Errorf("run reported correct=%t failed=%d of %d", rec.Correct, rec.Failed, rec.Attempted)
	}
	return json.RawMessage(last), rec, nil
}

// commitOf names a checkout's commit for the record ("" outside git), with
// "+dirty" when the tree has changes the commit does not: the change under
// measurement is usually not committed yet.
func commitOf(dir string) string {
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		b, err := cmd.Output()
		return string(bytes.TrimSpace(b)), err
	}
	commit, err := git("rev-parse", "--short", "HEAD")
	if err != nil {
		return ""
	}
	if changes, err := git("status", "--porcelain"); err == nil && changes != "" {
		commit += "+dirty"
	}
	return commit
}

// quartiles returns Q1, the median and Q3 by the method of Python's
// statistics.quantiles(n=4) — the benchmark's and its driver's.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// report prints, per end-to-end metric, both sides' quartiles, the ratio
// of the medians and the pairs the change won.
func report(w io.Writer, workload string, seed int, specs []metricSpec, parent, change map[string][]float64) {
	fmt.Fprintf(w, "%s, seed %d, %d pairs (median [Q1, Q3]; wins = pairs where the change is better, ties apart)\n",
		workload, seed, len(parent["wall_s"]))
	for _, spec := range specs {
		p, c := parent[spec.Name], change[spec.Name]
		if len(p) == 0 || len(p) != len(c) {
			continue
		}
		wins, ties := 0, 0
		for i := range p {
			switch {
			case c[i] == p[i]:
				ties++
			case (c[i] < p[i]) == (spec.Better != "higher"):
				wins++
			}
		}
		pq1, pmed, pq3 := quartiles(p)
		cq1, cmed, cq3 := quartiles(c)
		ratio := "n/a"
		if pmed != 0 {
			ratio = fmt.Sprintf("%.3f", cmed/pmed)
		}
		fmt.Fprintf(w, "  %-12s parent %9.3f [%9.3f, %9.3f]  change %9.3f [%9.3f, %9.3f] %-2s  change/parent %s  wins %d/%d ties %d  parent IQR %.3f\n",
			spec.Name, pmed, pq1, pq3, cmed, cq1, cq3, spec.Unit, ratio, wins, len(p), ties, pq3-pq1)
	}
}
