package check_test

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"repro/internal/check"
	"repro/internal/dist"
	"repro/internal/model"
)

// clockProto is the instrument behind the closed-run tests: n processes
// that never decide, one fetch-and-add object counting every step taken,
// and a process state that records the count its last step read — the
// depth of the configuration it stepped from. Every configuration at
// depth d >= 1 therefore holds a state (its last actor's, seen == d-1)
// that exists at no smaller depth, so expanding ANY node of a level asks
// the protocol something no earlier level could have put in a stepper's
// memo: a level that is expanded cannot hide behind memo hits.
type clockProto struct{ n int }

type clockSt struct{ steps, seen int }

func (s clockSt) Key() string { return fmt.Sprintf("clock%d/%d", s.steps, s.seen) }

func (p clockProto) Name() string      { return fmt.Sprintf("clock-proto(n=%d)", p.n) }
func (p clockProto) NumProcesses() int { return p.n }
func (p clockProto) Objects() []model.ObjectSpec {
	return []model.ObjectSpec{{Type: model.FetchAndAddType{}, Init: model.Int(0)}}
}
func (p clockProto) Init(pid, input int) model.State { return clockSt{seen: -1} }
func (p clockProto) Poised(pid int, st model.State) (model.Op, bool) {
	return model.Op{Object: 0, Kind: model.OpAdd, Arg: model.Int(1)}, true
}
func (p clockProto) Observe(pid int, st model.State, resp model.Value) model.State {
	return clockSt{steps: st.(clockSt).steps + 1, seen: int(resp.(model.Int))}
}
func (p clockProto) Decision(st model.State) (int, bool) { return 0, false }

// countingProto wraps a protocol and counts the calls that step it —
// Poised, Observe and the object types' Apply — in two ways: every call
// made while armed is set, and, armed or not, every call made on a state
// late selects. Decision calls (a visit, not a step) on late states are
// counted apart, as the proof that those states were reached at all.
type countingProto struct {
	model.Protocol
	late func(model.State) bool

	armed       atomic.Bool
	armedCalls  atomic.Int64
	lateCalls   atomic.Int64
	lateVisited atomic.Int64
}

func (c *countingProto) count(st model.State) {
	if c.armed.Load() {
		c.armedCalls.Add(1)
	}
	if st != nil && c.late != nil && c.late(st) {
		c.lateCalls.Add(1)
	}
}

func (c *countingProto) Poised(pid int, st model.State) (model.Op, bool) {
	c.count(st)
	return c.Protocol.Poised(pid, st)
}

func (c *countingProto) Observe(pid int, st model.State, resp model.Value) model.State {
	c.count(st)
	return c.Protocol.Observe(pid, st, resp)
}

func (c *countingProto) Decision(st model.State) (int, bool) {
	if c.late != nil && c.late(st) {
		c.lateVisited.Add(1)
	}
	return c.Protocol.Decision(st)
}

func (c *countingProto) Objects() []model.ObjectSpec {
	specs := append([]model.ObjectSpec(nil), c.Protocol.Objects()...)
	for i := range specs {
		specs[i].Type = countingType{ObjectType: specs[i].Type, c: c}
	}
	return specs
}

type countingType struct {
	model.ObjectType
	c *countingProto
}

func (t countingType) Apply(cur model.Value, op model.Op) (model.Value, model.Value, error) {
	t.c.count(nil)
	return t.ObjectType.Apply(cur, op)
}

// TestTruncationClosedRunStepsNothing: once the barrier that spends the
// budget has closed admissions, the configurations still to be visited —
// the level the closing barrier kept, under levelsync; whatever was still
// queued, under async — are visited and nothing else: not one Poised,
// Observe or Type.Apply call is made for them, under either order, on
// either store, across peers, and in a run resumed from the closing
// barrier's snapshot. The verdict is the uninterrupted run's throughout.
func TestTruncationClosedRunStepsNothing(t *testing.T) {
	const n, budget = 4, 400
	inputs := make([]int, n)
	pids := []int{0, 1, 2, 3}
	limits := check.ExploreLimits{MaxConfigs: budget}
	start := func(p model.Protocol) *model.Config { return model.MustNewConfig(p, inputs) }

	// The reference run names the levels: the last one is the level the
	// closing barrier kept, and the one before it closed the run.
	var depths, admitted []int
	ref := exploreT(t, clockProto{n}, start(clockProto{n}), pids, 0, check.ExploreOptions{
		Limits: limits,
		Engine: check.EngineOptions{Workers: 1, Progress: func(pr check.Progress) {
			depths, admitted = append(depths, pr.Depth), append(admitted, pr.Admitted)
		}},
	})
	if ref.Visited != budget || ref.Complete || len(depths) < 3 {
		t.Fatalf("reference run: visited %d complete %t levels %v, want a run truncated at %d", ref.Visited, ref.Complete, depths, budget)
	}
	lastLevel := depths[len(depths)-1]
	closing := lastLevel - 1
	if admitted[closing-1] >= budget || admitted[closing] != budget {
		t.Fatalf("admissions by level %v: level %d is not the closing one", admitted, closing)
	}
	// A state whose last step read the count lastLevel-1 was produced by a
	// step out of the closing level: it exists in the last level only.
	newCounting := func() *countingProto {
		return &countingProto{Protocol: clockProto{n}, late: func(st model.State) bool { return st.(clockSt).seen >= lastLevel-1 }}
	}
	verify := func(t *testing.T, cp *countingProto, res *check.ExploreResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if res.Visited != budget || res.Complete {
			t.Errorf("visited %d complete %t, want %d and incomplete", res.Visited, res.Complete, budget)
		}
		if got := cp.lateVisited.Load(); got == 0 {
			t.Errorf("no configuration of the last level was visited")
		}
		if got := cp.lateCalls.Load(); got != 0 {
			t.Errorf("%d protocol calls stepped a configuration of the last level, want 0", got)
		}
		if got := cp.armedCalls.Load(); got != 0 {
			t.Errorf("%d protocol calls after the closing barrier, want 0", got)
		}
	}

	for _, store := range []string{check.StoreMem, check.StoreSpill} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("levelsync/%s/w%d", store, workers), func(t *testing.T) {
				cp := newCounting()
				res, err := check.ExploreOpts(cp, start(cp), pids, 0, check.ExploreOptions{
					Limits: limits,
					Engine: check.EngineOptions{Workers: workers, Store: store, MemBudget: spillBudget(store, 1<<12),
						Progress: func(pr check.Progress) {
							if pr.Depth == closing {
								cp.armed.Store(true)
							}
						}},
				})
				verify(t, cp, res, err)
			})
		}
	}

	t.Run("dist/2peers", func(t *testing.T) {
		cp := newCounting() // one instance serves both peers
		res, err := dist.LoopbackExplore(context.Background(), cp, inputs, 0, check.ExploreOptions{
			Limits: limits, Engine: check.EngineOptions{Workers: 1}}, 2)
		verify(t, cp, res, err)
	})

	t.Run("resume", func(t *testing.T) {
		// The snapshot the closing barrier wrote, as a kill right after it
		// would leave it: copied aside from the Progress hook, which runs
		// after the barrier's generation is committed and before the next
		// level starts.
		dir, killed := t.TempDir(), t.TempDir()
		first := clockProto{n}
		exploreT(t, first, start(first), pids, 0, check.ExploreOptions{
			Limits: limits,
			Engine: check.EngineOptions{Workers: 2, Checkpoint: dir, Progress: func(pr check.Progress) {
				if pr.Depth == closing {
					if err := os.CopyFS(killed, os.DirFS(dir)); err != nil {
						t.Error(err)
					}
				}
			}},
		})
		// The whole resumed run is after the closing barrier, but its
		// frontier replay steps from the root, so only the calls on
		// last-level states are held to zero.
		cp := newCounting()
		levels := 0
		res, err := check.ExploreOpts(cp, start(cp), pids, 0, check.ExploreOptions{
			Limits: limits,
			Engine: check.EngineOptions{Workers: 1, Store: check.StoreSpill, MemBudget: 1 << 12, Checkpoint: killed,
				Progress: func(pr check.Progress) { levels++ }},
		})
		verify(t, cp, res, err)
		if levels != 1 {
			t.Errorf("the resumed run processed %d levels, want 1 (the last): it did not resume from the closing barrier", levels)
		}
	})

	t.Run("async", func(t *testing.T) {
		// One worker and a budget the root's own successors overflow: they
		// are claimed as one chunk, which admits budget-1 of them and
		// closes before handing any back, so every configuration but the
		// root is visited after the close.
		const wide, small = 8, 5
		cp := &countingProto{Protocol: clockProto{wide}, late: func(st model.State) bool { return st.(clockSt).seen >= 0 }}
		all := make([]int, wide)
		for i := range all {
			all[i] = i
		}
		res, err := check.ExploreOpts(cp, model.MustNewConfig(cp, make([]int, wide)), all, 0, check.ExploreOptions{
			Limits: check.ExploreLimits{MaxConfigs: small},
			Engine: check.EngineOptions{Workers: 1, Order: check.OrderAsync},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Visited != small || res.Complete {
			t.Errorf("visited %d complete %t, want %d and incomplete", res.Visited, res.Complete, small)
		}
		if got := cp.lateVisited.Load(); got == 0 {
			t.Errorf("no successor of the root was visited")
		}
		if got := cp.lateCalls.Load(); got != 0 {
			t.Errorf("%d protocol calls stepped a configuration admitted before the close and visited after it, want 0", got)
		}
	})
}
