package check_test

import (
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
// are exact, never budget artifacts), unreduced and under the symmetry
// quotient — the cells check.ModeConflicts leaves async — async must
// reproduce the oracle's visited-set size, decided-value sets, violation
// existence and completeness. Run under
// -race this also exercises the work-stealing deques and the quiescence
// counter under the detector.

// TestAsyncDifferentialExplore: async × {none, sym} at 4 workers agrees
// with the levelsync oracle per mode.
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

			for _, mode := range []string{check.ReduceNone, check.ReduceSym} {
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
				res, err := check.ExploreOpts(tc.p, c, pids, tc.k, check.ExploreOptions{
					Limits: limits,
					Engine: check.EngineOptions{Order: check.OrderAsync, Reduction: mode, Workers: 4},
				})
				if err != nil {
					t.Fatalf("async %s: %v", mode, err)
				}
				if res.Visited != oracle.Visited {
					t.Errorf("%s: async visited %d, levelsync %d", mode, res.Visited, oracle.Visited)
				}
				if !reflect.DeepEqual(res.DecidedValues, oracle.DecidedValues) {
					t.Errorf("%s: async decided %v, levelsync %v", mode, res.DecidedValues, oracle.DecidedValues)
				}
				if (res.AgreementViolation != nil) != (oracle.AgreementViolation != nil) {
					t.Errorf("%s: async violation existence %v, levelsync %v", mode, res.AgreementViolation != nil, oracle.AgreementViolation != nil)
				}
				if res.MaxDecidedTogether != oracle.MaxDecidedTogether {
					t.Errorf("%s: async max decided together %d, levelsync %d", mode, res.MaxDecidedTogether, oracle.MaxDecidedTogether)
				}
				if res.Complete != oracle.Complete {
					t.Errorf("%s: async complete %v, levelsync %v", mode, res.Complete, oracle.Complete)
				}
				if res.Async.Order != check.OrderAsync {
					t.Errorf("%s: result order %q, want %q", mode, res.Async.Order, check.OrderAsync)
				}
				if res.Async.QuiescenceScans < 1 {
					t.Errorf("%s: %d quiescence scans on a completed run, want >= 1", mode, res.Async.QuiescenceScans)
				}
			}
		})
	}
}

// TestAsyncDifferentialValency: the valency CLASS read off an async
// exploration agrees with the levelsync oracle's on every instance.
func TestAsyncDifferentialValency(t *testing.T) {
	for _, tc := range reduceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			pids := make([]int, tc.p.NumProcesses())
			for i := range pids {
				pids[i] = i
			}
			c := model.MustNewConfig(tc.p, tc.inputs)
			limits := check.ExploreLimits{MaxConfigs: 300000, MaxDepth: tc.maxDepth}

			oracle := classifyT(t, tc.p, c, pids, check.ExploreOptions{Limits: limits})
			res := classifyT(t, tc.p, c, pids, check.ExploreOptions{
				Limits: limits,
				Engine: check.EngineOptions{Order: check.OrderAsync, Workers: 4},
			})
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
			Engine: check.EngineOptions{Order: check.OrderAsync, Workers: workers},
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
			Engine: check.EngineOptions{Order: check.OrderAsync, Workers: 4},
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
