package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// spawnRep runs one repetition of a workload in a fresh child process
// (this executable again, with -rep), so that no heap state leaks from
// one repetition into the next and ru_maxrss is the repetition's own.
// The child's temporary files go under cfg.out, inside the checkout.
func spawnRep(cfg config, name string, rep int, traced bool) (repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return repResult{}, err
	}
	out, err := filepath.Abs(cfg.out)
	if err != nil {
		return repResult{}, err
	}
	args := []string{"-rep", strconv.Itoa(rep), "-workload", name, "-out", out,
		// Every repetition gets inputs of its own from the one seed.
		"-seed", strconv.FormatInt(cfg.seed*1000+int64(rep), 10)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	// A repetition takes seconds; one that hangs is killed well inside
	// the driver's own limit, and counts as failed.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+filepath.Join(out, "tmp")) // the child creates it
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return repResult{}, fmt.Errorf("%s repetition %d: %w", name, rep, err)
	}
	var res repResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return repResult{}, fmt.Errorf("%s repetition %d: reading result: %w", name, rep, err)
	}
	return res, nil
}

// sample is the repetitions of one workload gathered so far.
type sample struct {
	reps []repResult
	// attempted and failed include repetitions that did not report: a
	// child that crashes is one failed operation.
	attempted, failed int
	failures          []string
}

func (s *sample) add(res repResult, err error) {
	if err != nil {
		s.attempted++
		s.failed++
		s.failures = append(s.failures, err.Error())
		return
	}
	s.reps = append(s.reps, res)
	s.attempted += res.Attempted
	s.failed += res.Failed
	s.failures = append(s.failures, res.Failures...)
}

// values returns one end-to-end metric over the repetitions.
func (s *sample) values(metric string) []float64 {
	var xs []float64
	for _, r := range s.reps {
		xs = append(xs, r.E2E[metric])
	}
	return xs
}

// host is the line printed at the head of every report, so that a
// number is never read without the machine it came from.
func host(cfg config) string {
	s := fmt.Sprintf("host: nproc=%d gomaxprocs=%d %s commit=%s seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), headCommit("."), cfg.seed)
	if runtime.NumCPU() < 2 {
		// The 2-worker workloads then share one core.
		s += " TIMESHARED (fewer than 2 cores: 2-worker numbers are not scaling measurements)"
	}
	return s
}

// headCommit reads the checked-out commit from root/.git without
// running git; a checkout that is not a repository has none.
func headCommit(root string) string {
	git := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(git, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return strings.TrimSpace(string(head))
	}
	if data, err := os.ReadFile(filepath.Join(git, ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	packed, _ := os.ReadFile(filepath.Join(git, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// printEndToEnd prints every end-to-end metric of a workload: the
// median over its repetitions, the quartiles and the sample count.
func printEndToEnd(name string, s *sample) {
	for _, m := range endToEnd {
		xs := s.values(m.Name)
		q1, q3 := quartiles(xs)
		fmt.Printf("%-18s %-12s %12.4f %-3s  [q1 %.4f, q3 %.4f]  n=%d\n",
			name, m.Name, median(xs), m.Unit, q1, q3, len(xs))
	}
	printFailures(name, s)
}

// printFailures prints the share of verdict-checked operations that
// failed, and what each failure was.
func printFailures(name string, s *sample) {
	fmt.Printf("%-18s %-12s %12.6f      (%d of %d operations failed)\n",
		name, "failed_frac", ratio(float64(s.failed), float64(s.attempted)), s.failed, s.attempted)
	for _, f := range s.failures {
		fmt.Printf("%-18s FAILED: %s\n", name, f)
	}
}

// printPerLayer prints every per-layer metric the traced pass measured
// for a workload; metrics of layers the workload bypasses are left out
// of the table (and reported as 0 in the driver's JSON).
func printPerLayer(name string, layer map[string]float64) {
	for _, m := range perLayer {
		if v, ok := layer[m.Name]; ok {
			fmt.Printf("%-18s %-30s %16.4f %s\n", name, m.Name, v, m.Unit)
		}
	}
}

// tracedPass runs the traced pass of one workload: an untraced and a
// traced repetition (their difference is the tracing overhead), then
// the reference runs its ratios need. It returns the layer metrics and
// the workload's spans.
func tracedPass(cfg config, w *workload, s *sample) (map[string]float64, []span) {
	base, err := spawnRep(cfg, w.name, 0, false)
	s.add(base, err)
	main, err := spawnRep(cfg, w.name, 1, true)
	s.add(main, err)
	if err != nil {
		return map[string]float64{}, nil
	}
	layer := map[string]float64{}
	for k, v := range main.Layer {
		layer[k] = v
	}
	// A reference's verdict checks count like the workload's own (the
	// sample's repetitions are not read in a traced pass).
	refs := map[string]repResult{}
	for i, name := range w.refs {
		ref, err := spawnRep(cfg, name, 2+i, false)
		s.add(ref, err)
		if err == nil {
			refs[name] = ref
		}
	}
	if w.derive != nil {
		w.derive(main, refs, layer)
	}
	layer["bench.trace_overhead_frac"] = ratio(main.E2E["wall_s"], base.E2E["wall_s"]) - 1
	layer["bench.failed_frac"] = ratio(float64(s.failed), float64(s.attempted))

	// One bench.workload span over the traced repetition's own tree.
	spans := []span{{ID: len(main.Spans) + 1, Name: "bench.workload", Args: map[string]string{"workload": w.name}}}
	for _, sp := range main.Spans {
		if sp.Parent == 0 {
			sp.Parent = spans[0].ID
			spans[0].Start, spans[0].End = sp.Start, sp.End
		}
		spans = append(spans, sp)
	}
	return layer, spans
}

func printSpanSummary(name string, spans []span) {
	fmt.Printf("%-18s %-28s %8s %12s %12s\n", name, "span", "count", "total_s", "self_s")
	for _, row := range summarize(spans) {
		fmt.Printf("%-18s %-28s %8d %12.4f %12.4f\n", name, row.name, row.count, row.totalS, row.selfS)
	}
}

// result is the driver's contract: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is a driver run: one workload, repetitions until -seconds have
// passed (at least one), every end-to-end metric as the median over the
// repetitions; or, with -trace 1, the traced pass and every per-layer
// metric. The report is for people; the last line is for the driver.
func runOne(cfg config) bool {
	w := findWorkload(cfg.workload)
	if w == nil || w.why == "" {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", cfg.workload)
		return false
	}
	fmt.Println(host(cfg))
	s := &sample{}
	res := result{Metrics: map[string]metricValue{}}
	if cfg.trace == 1 {
		layer, spans := tracedPass(cfg, w, s)
		printPerLayer(w.name, layer)
		printSpanSummary(w.name, spans)
		printFailures(w.name, s)
		path := filepath.Join(cfg.out, "trace-"+w.name+".json")
		if err := writeChromeTrace(path, [][]span{spans}); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return false
		}
		fmt.Printf("trace: %s\n", path)
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{layer[m.Name], m.Unit}
		}
	} else {
		// Measure for about -seconds: another repetition starts only while
		// at least half of it is expected to fit, so a run overshoots by
		// half a repetition at most and a 10-second repetition is not run
		// twice for being 2% early.
		start, limit := time.Now(), time.Duration(cfg.seconds)*time.Second
		for rep := 0; rep == 0 || time.Since(start)+time.Since(start)/time.Duration(2*rep) < limit; rep++ {
			s.add(spawnRep(cfg, w.name, rep, false))
		}
		printEndToEnd(w.name, s)
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{median(s.values(m.Name)), m.Unit}
		}
	}
	res.Attempted, res.Failed = s.attempted, s.failed
	res.Correct = s.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return false
	}
	fmt.Println(string(line))
	return res.Correct
}

// runSet runs every workload at its fixed repetition count, interleaved
// round-robin (repetition 1 of every workload, then repetition 2, ...)
// so that slow drift of the machine lands on all workloads equally.
func runSet(cfg config) map[string]*sample {
	set := map[string]*sample{}
	for _, w := range workloads {
		set[w.name] = &sample{}
	}
	for rep := 0; ; rep++ {
		ran := false
		for _, w := range workloads {
			if rep < w.reps {
				set[w.name].add(spawnRep(cfg, w.name, rep, false))
				ran = true
			}
		}
		if !ran {
			return set
		}
	}
}

// runAll is the full report: every end-to-end metric of every workload
// and, with -trace 1, the traced pass of each: per-layer metrics, span
// self times and one Chrome trace of all workloads.
func runAll(cfg config) bool {
	fmt.Println(host(cfg))
	set := runSet(cfg)
	ok := true
	for _, w := range workloads {
		printEndToEnd(w.name, set[w.name])
		ok = ok && set[w.name].failed == 0
	}
	if cfg.trace == 0 {
		return ok
	}
	var procs [][]span
	for _, w := range workloads {
		s := &sample{}
		layer, spans := tracedPass(cfg, w, s)
		printPerLayer(w.name, layer)
		printSpanSummary(w.name, spans)
		printFailures(w.name, s)
		procs = append(procs, spans)
		ok = ok && s.failed == 0
	}
	path := filepath.Join(cfg.out, "trace.json")
	if err := writeChromeTrace(path, procs); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return false
	}
	fmt.Printf("trace: %s\n", path)
	return ok
}

// runSelfcheck runs the full untraced set twice back to back and holds
// every end-to-end median of the second set to the first within the
// metric's bound: the benchmark judging its own steadiness with the
// rule it will judge changes by. A wrong verdict in either set fails.
func runSelfcheck(cfg config) bool {
	fmt.Println(host(cfg))
	first, second := runSet(cfg), runSet(cfg)
	ok := true
	fmt.Printf("%-18s %-12s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "worse_by", "bound")
	for _, w := range workloads {
		a, b := first[w.name], second[w.name]
		for _, m := range endToEnd {
			ma, mb := median(a.values(m.Name)), median(b.values(m.Name))
			worse := ratio(mb-ma, ma) // every end-to-end metric is lower-is-better
			verdict := ""
			if worse > m.Bound {
				verdict = "  EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("%-18s %-12s %12.4f %12.4f %+8.1f%% %6.0f%%%s\n",
				w.name, m.Name, ma, mb, 100*worse, 100*m.Bound, verdict)
		}
		for _, s := range []*sample{a, b} {
			for _, f := range s.failures {
				fmt.Printf("%-18s FAILED: %s\n", w.name, f)
			}
			ok = ok && s.failed == 0
		}
	}
	return ok
}
