package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// scale selects the instance sizes of a repetition.
type scale int

const (
	// full is the size BENCHMARK.json measures.
	full scale = iota
	// smoke is budgets ÷ 50 and 40 requests: every workload end to end
	// in well under a second, for the tests.
	smoke
)

// repResult is what one repetition reports: one child process, one
// JSON line on its standard output.
type repResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// E2E holds every end-to-end metric; Layer the per-layer metrics
	// this repetition could measure (a traced one measures more).
	E2E   map[string]float64 `json:"e2e"`
	Layer map[string]float64 `json:"layer"`
	// Attempted and Failed count verdict-checked operations: an
	// operation fails when it errors, is refused, or returns a verdict
	// other than the pinned one.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Spans     []span   `json:"spans,omitempty"`
}

// rep is the state of the repetition a child process is running.
type rep struct {
	scale scale
	rng   *rand.Rand // seeded from -seed: the only source of inputs
	dir   string     // scratch directory, removed by the caller
	rec   *recorder  // nil on an untraced repetition
	root  int        // the bench.rep span

	start    time.Time
	setupEnd time.Time // set by the first timed call
	wall     time.Duration
	cpu      time.Duration
	// mallocs, allocBytes and gcCPU are deltas over the timed calls,
	// taken on traced repetitions only (reading them stops the world).
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64

	lat   []float64 // verdict latencies in ms; empty = one verdict, the timed call itself
	layer map[string]float64

	attempted, failed int
	failures          []string
}

func (r *rep) traced() bool { return r.rec != nil }

// check counts one verdict-checked operation.
func (r *rep) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// permute returns a seed-chosen permutation of a fixed input multiset:
// the seed moves inputs between processes, never the multiset, so the
// pinned counts hold for every seed.
func (r *rep) permute(multiset []int) []int {
	out := append([]int(nil), multiset...)
	r.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// timed runs one call into a layer as (part of) the repetition's timed
// operation: set-up ends at the first such call, and wall and CPU time
// accumulate over all of them. f receives its span for callbacks to
// hang children on.
func (r *rep) timed(name string, f func(span int) error) error {
	var ms0 runtime.MemStats
	var gc0, cpu0 float64
	if r.traced() {
		runtime.ReadMemStats(&ms0)
		gc0, cpu0 = gcCPUSeconds()
	}
	if r.setupEnd.IsZero() {
		r.setupEnd = time.Now()
	}
	t0, c0 := time.Now(), cpuTime()
	id := r.rec.open(r.root, name, t0)
	err := f(id)
	t1 := time.Now()
	r.rec.close(id, t1)
	r.wall += t1.Sub(t0)
	r.cpu += cpuTime() - c0
	if r.traced() {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		gc1, cpu1 := gcCPUSeconds()
		r.mallocs += ms1.Mallocs - ms0.Mallocs
		r.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		r.gcCPU += gc1 - gc0
		r.totalCPU += cpu1 - cpu0
	}
	return err
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// gcCPUSeconds reads the runtime's estimate of CPU seconds spent in the
// garbage collector and in total.
func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// runRep runs one repetition of w in this process: the oracle pre-check
// and the workload's own set-up, the timed operation, the verdict
// checks. dir is a scratch directory inside the checkout.
func runRep(w *workload, sc scale, seed int64, traced bool, dir string) repResult {
	r := &rep{
		scale: sc, rng: rand.New(rand.NewSource(seed)), dir: dir,
		start: time.Now(), layer: map[string]float64{},
	}
	if traced {
		r.rec = &recorder{}
		r.root = r.rec.open(0, "bench.rep", r.start)
	}
	oraclePrecheck(r)
	w.run(r)
	end := time.Now()
	r.rec.close(r.root, end)
	if r.setupEnd.IsZero() { // the workload failed before its timed call
		r.setupEnd = end
	}

	wallMS := r.wall.Seconds() * 1000
	if len(r.lat) == 0 {
		r.lat = []float64{wallMS}
	}
	res := repResult{
		Workload: w.name, Seed: seed, Layer: r.layer,
		E2E: map[string]float64{
			"setup_s":     r.setupEnd.Sub(r.start).Seconds(),
			"wall_s":      r.wall.Seconds(),
			"cpu_s":       r.cpu.Seconds(),
			"peak_rss_mb": peakRSSMB(),
			"lat_p50_ms":  percentile(r.lat, 50),
			"lat_p99_ms":  percentile(r.lat, 99),
		},
		Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
	}
	if r.rec != nil {
		res.Spans = r.rec.spans
	}
	return res
}
