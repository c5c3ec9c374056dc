package check_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/model"
)

// --- The async-order differential suite ---
//
// The barrier-free work-stealing order (EngineOptions.Order "async") is
// timing-dependent by construction, so it is checked the only way a
// nondeterministic scheduler can be: differentially against the
// level-synchronized oracle. On every protocol behind a Table 1 row (the
// same depth-capped instances the reduction suite uses, so comparisons
// are exact, never budget artifacts), across all reduction modes and
// both state stores, async must reproduce the oracle's visited-set size,
// decided-value sets, violation existence and completeness. Run under
// -race this also exercises the Chase-Lev deques, the quiescence
// counter and the continuous-admission owners under the detector.

// TestAsyncDifferentialExplore: async × {none, sym, sym+sleep} ×
// {mem, spill} at 4 workers agrees with the levelsync oracle per mode.
func TestAsyncDifferentialExplore(t *testing.T) {
	const budget = 300000
	for _, tc := range reduceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			pids := make([]int, tc.p.NumProcesses())
			for i := range pids {
				pids[i] = i
			}
			c := model.MustNewConfig(tc.p, tc.inputs)
			limits := check.ExploreLimits{MaxConfigs: budget, MaxDepth: tc.maxDepth}

			for _, mode := range []string{check.ReduceNone, check.ReduceSym, check.ReduceSymSleep} {
				oracle, err := check.ExploreOpts(tc.p, c, pids, tc.k, check.ExploreOptions{
					Limits: limits,
					Engine: check.EngineOptions{Reduction: mode},
				})
				if err != nil {
					t.Fatalf("oracle %s: %v", mode, err)
				}
				if oracle.Visited >= budget {
					t.Fatalf("oracle %s: budget bound (%d visited); the differential needs an exact depth-capped space", mode, oracle.Visited)
				}
				if oracle.Async.Order != check.OrderLevelSync {
					t.Fatalf("oracle %s: order %q, want %q", mode, oracle.Async.Order, check.OrderLevelSync)
				}
				for _, store := range []string{check.StoreMem, check.StoreSpill} {
					res, err := check.ExploreOpts(tc.p, c, pids, tc.k, check.ExploreOptions{
						Limits: limits,
						Engine: check.EngineOptions{
							Order:     check.OrderAsync,
							Reduction: mode,
							Store:     store,
							Workers:   4,
							Shards:    8,
						},
					})
					if err != nil {
						t.Fatalf("async %s/%s: %v", mode, store, err)
					}
					if res.Visited != oracle.Visited {
						t.Errorf("%s/%s: async visited %d, levelsync %d", mode, store, res.Visited, oracle.Visited)
					}
					if !reflect.DeepEqual(res.DecidedValues, oracle.DecidedValues) {
						t.Errorf("%s/%s: async decided %v, levelsync %v", mode, store, res.DecidedValues, oracle.DecidedValues)
					}
					if (res.AgreementViolation != nil) != (oracle.AgreementViolation != nil) {
						t.Errorf("%s/%s: async violation existence %v, levelsync %v", mode, store, res.AgreementViolation != nil, oracle.AgreementViolation != nil)
					}
					if res.MaxDecidedTogether != oracle.MaxDecidedTogether {
						t.Errorf("%s/%s: async max decided together %d, levelsync %d", mode, store, res.MaxDecidedTogether, oracle.MaxDecidedTogether)
					}
					if res.Complete != oracle.Complete {
						t.Errorf("%s/%s: async complete %v, levelsync %v", mode, store, res.Complete, oracle.Complete)
					}
					if res.Async.Order != check.OrderAsync {
						t.Errorf("%s/%s: result order %q, want %q", mode, store, res.Async.Order, check.OrderAsync)
					}
					if res.Async.QuiescenceScans < 1 {
						t.Errorf("%s/%s: %d quiescence scans on a completed run, want >= 1", mode, store, res.Async.QuiescenceScans)
					}
				}
			}
		})
	}
}

// TestAsyncDifferentialValency: the valency CLASS agrees with the oracle
// on every instance. (Values can legitimately differ: the oracle's
// early-exit stops at a level barrier, async's at a wall-clock poll, so
// incomplete runs may witness different value supersets — the class is
// what both orders certify.)
func TestAsyncDifferentialValency(t *testing.T) {
	for _, tc := range reduceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			pids := make([]int, tc.p.NumProcesses())
			for i := range pids {
				pids[i] = i
			}
			c := model.MustNewConfig(tc.p, tc.inputs)
			limits := check.ExploreLimits{MaxConfigs: 300000, MaxDepth: tc.maxDepth}

			oracle, err := check.ClassifyValencyOpts(tc.p, c, pids, check.ExploreOptions{Limits: limits})
			if err != nil {
				t.Fatal(err)
			}
			res, err := check.ClassifyValencyOpts(tc.p, c, pids, check.ExploreOptions{
				Limits: limits,
				Engine: check.EngineOptions{Order: check.OrderAsync, Workers: 4, Shards: 8},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Class != oracle.Class {
				t.Errorf("async valency %v, levelsync %v", res.Class, oracle.Class)
			}
		})
	}
}

// TestAsyncWorkerCountInvariance: the async visited set does not depend
// on the worker count (1, 2, 4 — including the degenerate single-worker
// case, where stealing never fires but the quiescence protocol still
// terminates the run).
func TestAsyncWorkerCountInvariance(t *testing.T) {
	p := core.MustNew(core.Params{N: 4, K: 1, M: 3})
	c := model.MustNewConfig(p, []int{0, 1, 2, 0})
	pids := []int{0, 1, 2, 3}
	var base *check.ExploreResult
	for _, workers := range []int{1, 2, 4} {
		res, err := check.ExploreOpts(p, c, pids, 1, check.ExploreOptions{
			Limits: check.ExploreLimits{MaxConfigs: 300000, MaxDepth: 5},
			Engine: check.EngineOptions{Order: check.OrderAsync, Workers: workers, Shards: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Visited != base.Visited || !reflect.DeepEqual(res.DecidedValues, base.DecidedValues) ||
			res.Complete != base.Complete {
			t.Errorf("workers=%d: visited=%d decided=%v complete=%v diverges from workers=1 (%d, %v, %v)",
				workers, res.Visited, res.DecidedValues, res.Complete,
				base.Visited, base.DecidedValues, base.Complete)
		}
	}
}

// TestAsyncSleepOnCyclicGraph: the async × sym+sleep composition on the
// deliberately cyclic, duplicate-heavy loopProto — the stress test for
// the barrier-free mask-intersection proof obligation in reduce.go: masks
// arrive in timing-dependent order, wakes must repair every transient
// over-prune, and depth relaxation (MaxDepth is set) interleaves with
// them. The visited set must equal the quotient's at every depth cap.
func TestAsyncSleepOnCyclicGraph(t *testing.T) {
	p := loopProto{n: 3}
	c := model.MustNewConfig(p, []int{0, 1, 0})
	pids := []int{0, 1, 2}
	for _, depth := range []int{2, 4, 7} {
		limits := check.ExploreLimits{MaxConfigs: 100000, MaxDepth: depth}
		oracle, err := check.ExploreOpts(p, c, pids, 0, check.ExploreOptions{
			Limits: limits, Engine: check.EngineOptions{Reduction: check.ReduceSymSleep}})
		if err != nil {
			t.Fatal(err)
		}
		// Several rounds: cyclic wake/deepen interleavings are timing-
		// dependent, so one agreeing run proves little.
		for round := 0; round < 3; round++ {
			res, err := check.ExploreOpts(p, c, pids, 0, check.ExploreOptions{
				Limits: limits,
				Engine: check.EngineOptions{Order: check.OrderAsync, Reduction: check.ReduceSymSleep,
					Workers: 4, Shards: 8},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Visited != oracle.Visited {
				t.Errorf("depth %d round %d: async sym+sleep visited %d, levelsync %d", depth, round, res.Visited, oracle.Visited)
			}
			if res.Complete != oracle.Complete {
				t.Errorf("depth %d round %d: async complete %v, levelsync %v", depth, round, res.Complete, oracle.Complete)
			}
		}
	}
}

// TestAsyncTruncationTerminates: when the configuration budget binds,
// async terminates (no hang waiting for rejected admissions), visits
// exactly MaxConfigs configurations, and reports incompleteness. Which
// states survive is timing-dependent — only the count is pinned.
func TestAsyncTruncationTerminates(t *testing.T) {
	p := core.MustNew(core.Params{N: 4, K: 1, M: 3})
	c := model.MustNewConfig(p, []int{0, 1, 2, 0})
	pids := []int{0, 1, 2, 3}
	for round := 0; round < 3; round++ {
		res, err := check.ExploreOpts(p, c, pids, 0, check.ExploreOptions{
			Limits: check.ExploreLimits{MaxConfigs: 2000},
			Engine: check.EngineOptions{Order: check.OrderAsync, Workers: 4, Shards: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Visited != 2000 {
			t.Errorf("round %d: visited %d, want exactly the 2000 budget", round, res.Visited)
		}
		if res.Complete {
			t.Errorf("round %d: truncated run reported complete", round)
		}
	}
}

// cycleProto is a cyclic protocol with a tunable state space (~m^n
// configurations): each process counts modulo m, swapping its counter
// into one of two objects, so every configuration recurs after full
// laps — re-encounters keep arriving long after the original admissions
// have been flushed to disk, which is exactly what the async spill probe
// path needs to be exercised.
type cycleProto struct{ n, m int }

type cycleSt struct{ c int }

func (s cycleSt) Key() string { return fmt.Sprintf("cyc%d", s.c) }

func (p cycleProto) Name() string      { return "cycle-proto" }
func (p cycleProto) NumProcesses() int { return p.n }
func (p cycleProto) Objects() []model.ObjectSpec {
	return []model.ObjectSpec{
		{Type: model.SwapType{}, Init: model.Int(0)},
		{Type: model.SwapType{}, Init: model.Int(0)},
	}
}
func (p cycleProto) Init(pid, input int) model.State { return cycleSt{c: input % p.m} }
func (p cycleProto) Poised(pid int, st model.State) (model.Op, bool) {
	s := st.(cycleSt)
	return model.Op{Object: s.c % 2, Kind: model.OpSwap, Arg: model.Int(s.c)}, true
}
func (p cycleProto) Observe(pid int, st model.State, resp model.Value) model.State {
	return cycleSt{c: (st.(cycleSt).c + 1) % p.m}
}
func (p cycleProto) Decision(st model.State) (int, bool) { return 0, false }

// TestAsyncSpillProbePath: a tiny budget forces the spill store's
// barrier-free admission path through its run-file binary-search probes
// (runs written, prefilter hits counted) while the visited set still
// matches the in-memory oracle.
func TestAsyncSpillProbePath(t *testing.T) {
	p := cycleProto{n: 3, m: 8}
	c := model.MustNewConfig(p, []int{0, 3, 5})
	pids := []int{0, 1, 2}
	limits := check.ExploreLimits{MaxConfigs: 100000}
	oracle, err := check.ExploreOpts(p, c, pids, 0, check.ExploreOptions{Limits: limits})
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.Complete {
		t.Fatalf("oracle incomplete (%d visited); the comparison needs the full cyclic space", oracle.Visited)
	}
	res, err := check.ExploreOpts(p, c, pids, 0, check.ExploreOptions{
		Limits: limits,
		Engine: check.EngineOptions{Order: check.OrderAsync, Store: check.StoreSpill,
			MemBudget: 16 << 10, Workers: 4, Shards: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != oracle.Visited {
		t.Errorf("async spill visited %d, mem oracle %d", res.Visited, oracle.Visited)
	}
	if res.Store.RunsWritten == 0 {
		t.Fatal("budget did not force async delta flushes; the probe path was never exercised")
	}
	if res.Store.PrefilterHits == 0 {
		t.Error("prefilter_hits = 0 on a cyclic run with re-encountered spilled fingerprints")
	}
}
