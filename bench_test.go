// Package repro_test holds the benchmark harness that regenerates the
// paper's evaluation artifacts; this header is its experiment index:
//
//	Table 1 rows  -> BenchmarkTable1*           (one benchmark per row)
//	Figure 1      -> BenchmarkLemma9Construction
//	Theorem 10    -> BenchmarkTheorem10Certificate
//	Figures 2-5   -> BenchmarkCoveringScan, BenchmarkBivalenceSearch
//	Figure 6      -> BenchmarkForbiddenLedger
//	Lemma 8       -> BenchmarkSoloTermination
//	X1 (runtime)  -> BenchmarkRuntimeConsensus*, BenchmarkRuntimeKSet, BenchmarkRuntimeSoloPropose
//	X2 (schedules)-> BenchmarkAdversarialSchedules
//
// Each benchmark reports the paper-relevant metric (certified object
// count, max solo steps, ...) via b.ReportMetric in addition to ns/op, so
// `go test -bench . -benchmem` regenerates the table's content, not just
// timings. Run `go run ./cmd/table1` for the human-readable table.
package repro_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/lowerbound"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simulate"
	"repro/internal/sweep"
)

// benchValidate is the shared validation workload: a fixed number of
// adversarial schedules per iteration.
func benchValidate(b *testing.B, p model.Protocol, k int) {
	b.Helper()
	opts := harness.ValidateOptions{Schedules: 5, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := harness.ValidateProtocol(p, k, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(p.Objects())), "objects")
}

// --- Table 1 row benchmarks ---
//
// Each row benchmark drives the shared scenario definition from
// internal/sweep — the same code path cmd/table1 and cmd/sweep execute —
// with the benchmark validation workload (5 adversarial schedules).

// benchSweepRow runs one sweep scenario cell per iteration, failing on
// any validation or certification shortfall, and returns the last
// outcome for metric reporting.
func benchSweepRow(b *testing.B, key string, n, k int) *sweep.Outcome {
	b.Helper()
	cell := sweep.Cell{Row: key, N: n, K: k, Schedules: 5, Seed: 1}
	var out *sweep.Outcome
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := sweep.RunCell(cell)
		if err != nil {
			b.Fatal(err)
		}
		if o.Failed != "" {
			b.Fatal(o.Failed)
		}
		out = o
	}
	return out
}

// BenchmarkTable1ConsensusRegisters regenerates the row
// "Consensus / Registers: LB n [16], UB n [3,12]" by validating the
// racing-counters algorithm from n registers.
func BenchmarkTable1ConsensusRegisters(b *testing.B) {
	for _, n := range []int{2, 3, 4, 6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			out := benchSweepRow(b, "consensus-registers", n, 1)
			b.ReportMetric(float64(out.Measured), "objects")
		})
	}
}

// BenchmarkTable1ConsensusSwap regenerates the row
// "Consensus / Swap objects: LB n-1 [Thm 10], UB n-1 [Alg 1]": it runs the
// Lemma 9 adversary against Algorithm 1 and reports the certified count.
func BenchmarkTable1ConsensusSwap(b *testing.B) {
	for _, n := range []int{3, 4, 6, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			out := benchSweepRow(b, "consensus-swap", n, 1)
			if out.Certified != n-1 {
				b.Fatalf("certified %d, want n-1 = %d", out.Certified, n-1)
			}
			b.ReportMetric(float64(out.Certified), "certified-objects")
			b.ReportMetric(float64(out.Measured), "objects")
		})
	}
}

// BenchmarkTable1ReadableBinarySwap regenerates the lower-bound side of
// the row "Consensus / Readable swap, domain 2: LB n-2 [Thm 18],
// UB 2n-1 [7]": covering scan plus the Lemma 20 ledger on a binary-domain
// protocol. (The upper bound is cited from [7]; only its object count,
// 2n-1, is reported.)
func BenchmarkTable1ReadableBinarySwap(b *testing.B) {
	for _, n := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tb, err := baseline.NewToyBitRace(n, n)
			if err != nil {
				b.Fatal(err)
			}
			inputs := make([]int, n)
			for i := range inputs {
				inputs[i] = i % 2
			}
			var weight int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run, err := lowerbound.RunLedger(tb, inputs, 0)
				if err != nil {
					b.Fatal(err)
				}
				weight = run.Ledger.Weight()
			}
			b.ReportMetric(float64(weight), "ledger-weight")
			b.ReportMetric(float64(lowerbound.Theorem18Bound(n)), "paper-LB")
		})
	}
}

// BenchmarkTable1BoundedDomain regenerates the row
// "Consensus / Readable swap, domain b: LB (n-2)/(3b+1) [Thm 22]" as a
// sweep of the bound arithmetic against the ledger capacity for several b.
func BenchmarkTable1BoundedDomain(b *testing.B) {
	for _, dom := range []int{2, 3, 4, 8} {
		b.Run(fmt.Sprintf("b=%d", dom), func(b *testing.B) {
			const n = 32
			var bound int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bound = lowerbound.Theorem22Bound(n, dom)
				// Ledger capacity check: a ledger over `bound` objects
				// can hold at least n-2 weight, the Theorem 22 content.
				l := lowerbound.NewLedger(bound+1, dom)
				if l.MaxWeight() < n-2-(3*dom+1) {
					b.Fatalf("capacity arithmetic violated: %d", l.MaxWeight())
				}
			}
			b.ReportMetric(float64(bound), "paper-LB")
		})
	}
}

// BenchmarkTable1EGSZ regenerates the row "Consensus / Readable swap,
// unbounded: LB Ω(√n) [17], UB n-1 [15]" by validating the EGSZ-style
// readable-race algorithm from n-1 readable swap objects.
func BenchmarkTable1EGSZ(b *testing.B) {
	for _, n := range []int{2, 3, 4, 6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			out := benchSweepRow(b, "consensus-readable-unbounded", n, 1)
			b.ReportMetric(float64(out.Measured), "objects")
		})
	}
}

// BenchmarkTable1KSetRegisters regenerates the row "k-set / Registers:
// LB ⌈n/k⌉ [16], UB n-k+1 [6]".
func BenchmarkTable1KSetRegisters(b *testing.B) {
	for _, tt := range []struct{ n, k int }{{4, 2}, {6, 2}, {6, 3}} {
		b.Run(fmt.Sprintf("n=%d,k=%d", tt.n, tt.k), func(b *testing.B) {
			out := benchSweepRow(b, "kset-registers", tt.n, tt.k)
			b.ReportMetric(float64(out.Measured), "objects")
		})
	}
}

// BenchmarkTable1KSetSwap regenerates the row "k-set / Swap objects:
// LB ⌈n/k⌉-1 [Thm 10], UB n-k [Alg 1]": adversarial validation plus the
// full Theorem 10 induction against Algorithm 1.
func BenchmarkTable1KSetSwap(b *testing.B) {
	for _, tt := range []struct{ n, k int }{{4, 2}, {6, 2}, {6, 3}} {
		b.Run(fmt.Sprintf("n=%d,k=%d", tt.n, tt.k), func(b *testing.B) {
			out := benchSweepRow(b, "kset-swap", tt.n, tt.k)
			if want := lowerbound.Theorem10Bound(tt.n, tt.k); out.Certified < want {
				b.Fatalf("certified %d < paper bound %d", out.Certified, want)
			}
			b.ReportMetric(float64(out.Certified), "certified-objects")
			b.ReportMetric(float64(out.Measured), "objects")
		})
	}
}

// BenchmarkTable1KSetReadableSwap regenerates the row "k-set / Readable
// swap, unbounded: LB 1, UB n-k [Alg 1]" using Algorithm 1 over readable
// swap objects.
func BenchmarkTable1KSetReadableSwap(b *testing.B) {
	for _, tt := range []struct{ n, k int }{{4, 2}, {6, 3}} {
		b.Run(fmt.Sprintf("n=%d,k=%d", tt.n, tt.k), func(b *testing.B) {
			out := benchSweepRow(b, "kset-readable", tt.n, tt.k)
			b.ReportMetric(float64(out.Measured), "objects")
		})
	}
}

// BenchmarkSweepSmallGrid measures the sweep subsystem end to end: the CI
// smoke grid (Table 1 rows plus an exploration cell at n=4, k=2) expanded
// and executed concurrently by the grid runner.
func BenchmarkSweepSmallGrid(b *testing.B) {
	grid, err := sweep.NamedGrid("small")
	if err != nil {
		b.Fatal(err)
	}
	cells, err := grid.Cells()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := sweep.Run(cells, sweep.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Gates() {
				b.Fatalf("cell %s: %s %s", r.Cell, r.Status, r.Error)
			}
		}
	}
	b.ReportMetric(float64(len(cells)), "cells")
}

// --- Figure benchmarks ---

// BenchmarkLemma9Construction measures the Figure 1 induction itself as n
// grows: stage count and mirrored-step volume scale with n.
func BenchmarkLemma9Construction(b *testing.B) {
	for _, n := range []int{4, 8, 12, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := core.MustNew(core.Params{N: n, K: 1, M: 2})
			var stages int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cert, err := lowerbound.ConsensusCertificate(p, 0)
				if err != nil {
					b.Fatal(err)
				}
				stages = len(cert.Stages)
			}
			b.ReportMetric(float64(stages), "stages")
		})
	}
}

// BenchmarkCoveringScan measures the covering search behind Figures 2-5:
// maximum simultaneous distinct-object covering found within a budget.
func BenchmarkCoveringScan(b *testing.B) {
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := core.MustNew(core.Params{N: n, K: 1, M: 2})
			inputs := make([]int, n)
			for i := range inputs {
				inputs[i] = i % 2
			}
			limits := lowerbound.SearchLimits{MaxConfigs: 10000, MaxDepth: 14}
			var covered int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := lowerbound.CoveringScan(p, inputs, limits)
				if err != nil {
					b.Fatal(err)
				}
				covered = res.MaxCovered
			}
			b.ReportMetric(float64(covered), "max-covered")
		})
	}
}

// BenchmarkBivalenceSearch measures Observation 12 / Lemma 13 machinery:
// proving a split-input initial configuration bivalent.
func BenchmarkBivalenceSearch(b *testing.B) {
	tb, err := baseline.NewToyBitRace(3, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := model.MustNewConfig(tb, []int{0, 1, 1})
		if _, err := lowerbound.ProveBivalent(tb, c, []int{0, 1}, lowerbound.SearchLimits{MaxConfigs: 20000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForbiddenLedger measures the Figure 6 ledger evolution.
func BenchmarkForbiddenLedger(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tb, err := baseline.NewToyBitRace(n, n-1)
			if err != nil {
				b.Fatal(err)
			}
			inputs := make([]int, n)
			for i := range inputs {
				inputs[i] = i % 2
			}
			var stages int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run, err := lowerbound.RunLedger(tb, inputs, 0)
				if err != nil {
					b.Fatal(err)
				}
				stages = len(run.Stages)
			}
			b.ReportMetric(float64(stages), "stages")
		})
	}
}

// --- Lemma 8: solo step complexity ---

// BenchmarkSoloTermination regenerates the L8 census: the maximum solo
// step count from randomly reached configurations, against the paper's
// 8(n-k) bound.
func BenchmarkSoloTermination(b *testing.B) {
	for _, tt := range []struct{ n, k int }{{4, 1}, {8, 1}, {8, 4}, {16, 8}} {
		b.Run(fmt.Sprintf("n=%d,k=%d", tt.n, tt.k), func(b *testing.B) {
			p := core.MustNew(core.Params{N: tt.n, K: tt.k, M: 2})
			bound := p.Params().SoloStepBound()
			var maxSteps int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				census, err := harness.MeasureSolo(p, tt.k, 20, bound, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				if census.MaxSteps > maxSteps {
					maxSteps = census.MaxSteps
				}
			}
			b.ReportMetric(float64(maxSteps), "max-solo-steps")
			b.ReportMetric(float64(bound), "paper-bound-8(n-k)")
		})
	}
}

// --- X1: runtime (goroutines + hardware swap) ---

// BenchmarkRuntimeConsensusPropose measures Algorithm 1 end-to-end on real
// goroutines: n proposers racing on n-1 atomic-exchange cells.
func BenchmarkRuntimeConsensusPropose(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := core.NewSetAgreement(core.Params{N: n, K: 1, M: 2}, core.Options{Backoff: true, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				decisions := make([]int, n)
				for pid := 0; pid < n; pid++ {
					wg.Add(1)
					go func(pid int) {
						defer wg.Done()
						v, err := s.Propose(pid, pid%2)
						if err != nil {
							b.Error(err)
							return
						}
						decisions[pid] = v
					}(pid)
				}
				wg.Wait()
				for _, d := range decisions[1:] {
					if d != decisions[0] {
						b.Fatalf("agreement violated: %v", decisions)
					}
				}
			}
		})
	}
}

// BenchmarkRuntimeKSet measures the k-set runtime: n proposers, k allowed
// decision values.
func BenchmarkRuntimeKSet(b *testing.B) {
	for _, tt := range []struct{ n, k int }{{8, 2}, {8, 4}, {16, 4}} {
		b.Run(fmt.Sprintf("n=%d,k=%d", tt.n, tt.k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := core.NewSetAgreement(core.Params{N: tt.n, K: tt.k, M: tt.k + 1},
					core.Options{Backoff: true, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				decided := make([]int, tt.n)
				for pid := 0; pid < tt.n; pid++ {
					wg.Add(1)
					go func(pid int) {
						defer wg.Done()
						v, err := s.Propose(pid, pid%(tt.k+1))
						if err != nil {
							b.Error(err)
							return
						}
						decided[pid] = v
					}(pid)
				}
				wg.Wait()
				distinct := map[int]bool{}
				for _, d := range decided {
					distinct[d] = true
				}
				if len(distinct) > tt.k {
					b.Fatalf("k-agreement violated: %d values", len(distinct))
				}
			}
		})
	}
}

// BenchmarkRuntimeSoloPropose measures the per-swap cost of the runtime:
// one proposer alone on a fresh n=16 instance without backoff, so no
// contention and no sleep hides the steps between swaps.
func BenchmarkRuntimeSoloPropose(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := core.NewSetAgreement(core.Params{N: 16, K: 1, M: 2}, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if v, err := s.Propose(3, 1); err != nil || v != 1 {
			b.Fatalf("solo proposer decided %d, %v; want 1", v, err)
		}
	}
}

// BenchmarkRuntimeSwapContention is the microbenchmark under X1: raw
// atomic-exchange throughput on one cell under all contending goroutines,
// the hardware primitive every swap object compiles to.
func BenchmarkRuntimeSwapContention(b *testing.B) {
	var sw atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		x := int64(0)
		for pb.Next() {
			x = sw.Swap(x)
		}
	})
}

// --- X2: adversarial model schedules ---

// BenchmarkAdversarialSchedules measures the model-level validation
// pipeline: seeded random schedules with solo finish on Algorithm 1.
func BenchmarkAdversarialSchedules(b *testing.B) {
	for _, n := range []int{3, 5, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := core.MustNew(core.Params{N: n, K: 1, M: 2})
			benchValidate(b, p, 1)
		})
	}
}

// BenchmarkModelStep is the substrate microbenchmark: a single model step
// (Poised + Apply + Observe) of Algorithm 1.
func BenchmarkModelStep(b *testing.B) {
	p := core.MustNew(core.Params{N: 4, K: 1, M: 2})
	inputs := []int{0, 1, 0, 1}
	c := model.MustNewConfig(p, inputs)
	rr := &sched.RoundRobin{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		active := c.Active(p)
		if len(active) == 0 {
			b.StopTimer()
			c = model.MustNewConfig(p, inputs)
			b.StartTimer()
			active = c.Active(p)
		}
		pid := rr.Next(c, active)
		if _, err := model.Apply(p, c, pid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMargin measures the line 16 margin ablation
// (core.Ablation.Margin): how quickly the counterexample search refutes
// Algorithm 1 with the margin weakened to 1, versus exhausting its budget
// on the faithful margin-2 algorithm.
func BenchmarkAblationMargin(b *testing.B) {
	for _, tt := range []struct {
		name   string
		margin int
		broken bool
	}{{"margin=1-broken", 1, true}, {"margin=2-safe", 2, false}} {
		b.Run(tt.name, func(b *testing.B) {
			v := core.MustNew(core.Params{N: 3, K: 1, M: 2, Ablation: core.Ablation{Margin: tt.margin}})
			limits := lowerbound.SearchLimits{MaxConfigs: 30000, MaxDepth: 30}
			var found bool
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := lowerbound.FindAgreementViolation(v, []int{0, 1, 1}, 1, limits)
				if err != nil {
					b.Fatal(err)
				}
				found = w != nil
			}
			if found != tt.broken {
				b.Fatalf("violation found=%t, want %t", found, tt.broken)
			}
		})
	}
}

// BenchmarkAblationObjects measures the same refutation with one object
// removed (the Theorem 10 boundary crossed from above).
func BenchmarkAblationObjects(b *testing.B) {
	for _, tt := range []struct {
		name    string
		objects int
		broken  bool
	}{{"objects=1-broken", 1, true}, {"objects=2-safe", 2, false}} {
		b.Run(tt.name, func(b *testing.B) {
			v := core.MustNew(core.Params{N: 3, K: 1, M: 2, Ablation: core.Ablation{Objects: tt.objects}})
			limits := lowerbound.SearchLimits{MaxConfigs: 30000, MaxDepth: 30}
			var found bool
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := lowerbound.FindAgreementViolation(v, []int{0, 1, 1}, 1, limits)
				if err != nil {
					b.Fatal(err)
				}
				found = w != nil
			}
			if found != tt.broken {
				b.Fatalf("violation found=%t, want %t", found, tt.broken)
			}
		})
	}
}

// --- Explorer engine benchmarks ---

// exploreBenchInstance is the shared workload for the explorer
// benchmarks: an Algorithm 1 consensus instance (N=4, K=1, M=3) explored
// to a fixed configuration budget, so every variant below does exactly
// the same amount of state-space work and the timings compare engines,
// not workloads.
func exploreBenchInstance(b *testing.B) (model.Protocol, *model.Config, []int, check.ExploreLimits) {
	b.Helper()
	p := core.MustNew(core.Params{N: 4, K: 1, M: 3})
	c := model.MustNewConfig(p, []int{0, 1, 2, 0})
	pids := []int{0, 1, 2, 3}
	return p, c, pids, check.ExploreLimits{MaxConfigs: 20000}
}

// BenchmarkExploreSequentialStringKey is the baseline: the original
// single-threaded explorer deduplicating on full Config.Key() strings.
func BenchmarkExploreSequentialStringKey(b *testing.B) {
	p, c, pids, limits := exploreBenchInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	var visited int
	for i := 0; i < b.N; i++ {
		res := check.ExploreSequential(p, c, pids, 1, limits)
		visited = res.Visited
	}
	b.ReportMetric(float64(visited), "configs")
}

// BenchmarkExploreParallelFingerprint is the sharded frontier engine at
// full parallelism with 64-bit fingerprint deduplication — the
// configuration the model-checking CLIs use by default. On >= 4 cores it
// beats BenchmarkExploreSequentialStringKey on the same instance.
func BenchmarkExploreParallelFingerprint(b *testing.B) {
	p, c, pids, limits := exploreBenchInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	var visited int
	for i := 0; i < b.N; i++ {
		res, err := check.ExploreOpts(p, c, pids, 1, check.ExploreOptions{Limits: limits})
		if err != nil {
			b.Fatal(err)
		}
		visited = res.Visited
	}
	b.ReportMetric(float64(visited), "configs")
}

// BenchmarkExploreEngineMatrix isolates the two axes: worker count
// (parallelism) and visited-set keying (fingerprint vs string).
func BenchmarkExploreEngineMatrix(b *testing.B) {
	p, c, pids, limits := exploreBenchInstance(b)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, keys := range []struct {
			name       string
			stringKeys bool
		}{{"fingerprint", false}, {"stringkey", true}} {
			b.Run(fmt.Sprintf("workers=%d/%s", workers, keys.name), func(b *testing.B) {
				opts := check.ExploreOptions{
					Limits: limits,
					Engine: check.EngineOptions{Workers: workers, StringKeys: keys.stringKeys},
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := check.ExploreOpts(p, c, pids, 1, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkExploreSym is the symmetry quotient's hot path, the one the
// explore-reduce workload times at n=7: an exhaustive toy-bit race at
// n=6 with alternating inputs, explored under -reduce sym at two workers.
// Every successor's fingerprint is orbit-canonical; pruned/state is how
// many of its classes were out of order, per visited state.
func BenchmarkExploreSym(b *testing.B) {
	p, err := baseline.NewToyBitRace(6, 2)
	if err != nil {
		b.Fatal(err)
	}
	c := model.MustNewConfig(p, []int{0, 1, 0, 1, 0, 1})
	opts := check.ExploreOptions{
		Limits: check.ExploreLimits{MaxConfigs: 100_000_000},
		Engine: check.EngineOptions{Workers: 2, Reduction: check.ReduceSym},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res *check.ExploreResult
	for i := 0; i < b.N; i++ {
		if res, err = check.ExploreOpts(p, c, []int{0, 1, 2, 3, 4, 5}, 0, opts); err != nil {
			b.Fatal(err)
		}
		if !res.Complete {
			b.Fatalf("incomplete after %d configurations", res.Visited)
		}
	}
	b.ReportMetric(float64(res.Visited), "configs")
	b.ReportMetric(float64(res.Reduction.StatesPruned)/float64(res.Visited), "pruned/state")
}

// BenchmarkExploreColdCell is a cache-missing mcheckd request on the
// path the serve-mix workload's cold requests take: one sweep cell of the
// `explore` row at n=4 k=2 under a budget of 40,001 configurations, whose
// closing level reaches about three times what its cut keeps.
func BenchmarkExploreColdCell(b *testing.B) {
	cell := sweep.Cell{Grid: "bench", Row: "explore", N: 4, K: 2, MaxConfigs: 40001}
	b.ReportAllocs()
	b.ResetTimer()
	var rec sweep.Result
	for i := 0; i < b.N; i++ {
		if rec = sweep.RunCellRecord(cell); rec.Status != sweep.StatusOK {
			b.Fatalf("cell: %+v", rec)
		}
	}
	b.ReportMetric(float64(rec.States), "configs")
}

// BenchmarkTheorem10Certificate is the exact-key engine where the paper
// needs it: the Theorem 10 certificate for Algorithm 1 at n=12, k=3 — the
// sweep's theorem10 scenario, as certify-grid runs it — whose R-only
// decision hunts run on exact keys (ref tuples into the run's slot
// dictionary) with provenance, their classifiers reading decisions from
// the dictionary. configs/s counts every configuration those searches
// visit.
func BenchmarkTheorem10Certificate(b *testing.B) {
	const n, k = 12, 3
	mode, _ := sweep.LBModeByKey("theorem10")
	p, _, err := mode.Build(n, k)
	if err != nil {
		b.Fatal(err)
	}
	configs := 0
	limits := lowerbound.SearchLimits{MaxConfigs: mode.MaxConfigs, MaxDepth: mode.MaxDepth,
		Progress: func(pr check.Progress) { configs += pr.FrontierSize }}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cert, err := lowerbound.Theorem10Driver(p, k, limits, 0)
		if err != nil {
			b.Fatal(err)
		}
		if cert.Objects != lowerbound.Theorem10Bound(n, k) {
			b.Fatalf("certified %d objects, bound %d", cert.Objects, lowerbound.Theorem10Bound(n, k))
		}
	}
	b.ReportMetric(float64(configs)/b.Elapsed().Seconds(), "configs/s")
}

// BenchmarkCheckpointResume times what a killed long run pays to carry
// on: the shared instance at 100k states, checkpointing at every barrier,
// is cancelled after level 10 (untimed), and the timed call resumes it
// from the snapshot to the verdict. restore-s is the part before the
// first resumed level completes: loading and verifying the snapshot,
// bulk-seeding the visited set, replaying the frontier, and that level.
func BenchmarkCheckpointResume(b *testing.B) {
	p, c, pids, limits := exploreBenchInstance(b)
	limits.MaxConfigs = 100000
	want, err := check.ExploreOpts(p, c, pids, 1, check.ExploreOptions{Limits: limits})
	if err != nil {
		b.Fatal(err)
	}
	var restore time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		opts := check.ExploreOptions{Limits: limits, Engine: check.EngineOptions{Workers: 2, Checkpoint: b.TempDir()}}
		ctx, cancel := context.WithCancel(context.Background())
		opts.Engine.Ctx = ctx
		opts.Engine.Progress = func(pr check.Progress) {
			if pr.Depth == 10 {
				cancel()
				runtime.Gosched() // the cancellation lands through a goroutine
			}
		}
		_, err := check.ExploreOpts(p, c, pids, 1, opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			b.Fatalf("run to kill: err = %v, want context.Canceled", err)
		}
		opts.Engine.Ctx = nil
		first := true
		began := time.Now()
		opts.Engine.Progress = func(check.Progress) {
			if first {
				restore += time.Since(began)
				first = false
			}
		}
		b.StartTimer()
		res, err := check.ExploreOpts(p, c, pids, 1, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Visited != want.Visited {
			b.Fatalf("resumed run visited %d, uninterrupted %d", res.Visited, want.Visited)
		}
	}
	b.ReportMetric(restore.Seconds()/float64(b.N), "restore-s")
	b.ReportMetric(float64(want.Visited), "configs")
}

// BenchmarkLowerboundSearchWorkers measures the ported schedule search
// across engine worker counts on the negative control: the agreement
// violation of the 2-process pair consensus run with 3 processes
// (FindAgreementViolation). BenchmarkTheorem10Certificate is the one that
// times Theorem 10's R-only decision hunts.
func BenchmarkLowerboundSearchWorkers(b *testing.B) {
	p := baseline.NewPairConsensus(2).WithProcesses(3)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			limits := lowerbound.SearchLimits{Workers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := lowerbound.FindAgreementViolation(p, []int{0, 1, 1}, 1, limits)
				if err != nil {
					b.Fatal(err)
				}
				if w == nil {
					b.Fatal("expected a violation witness")
				}
			}
		})
	}
}

// BenchmarkSimulationOverhead compares a native register protocol step
// against its simulated (readable swap) form — the cost of the [14]
// transformation, which the paper's reductions rely on being free.
func BenchmarkSimulationOverhead(b *testing.B) {
	native, err := baseline.NewRacingCounters(4, 2)
	if err != nil {
		b.Fatal(err)
	}
	sim := simulate.MustNew(native)
	for _, tt := range []struct {
		name string
		p    model.Protocol
	}{{"native", native}, {"simulated", sim}} {
		b.Run(tt.name, func(b *testing.B) {
			inputs := []int{0, 1, 0, 1}
			c := model.MustNewConfig(tt.p, inputs)
			rr := &sched.RoundRobin{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				active := c.Active(tt.p)
				if len(active) == 0 {
					b.StopTimer()
					c = model.MustNewConfig(tt.p, inputs)
					b.StartTimer()
					active = c.Active(tt.p)
				}
				pid := rr.Next(c, active)
				if _, err := model.Apply(tt.p, c, pid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
