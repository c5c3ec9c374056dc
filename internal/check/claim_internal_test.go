package check

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/model"
)

// Internal tests for the claim-before-build expansion: what a duplicate
// costs (no node), and the edges of a chunk.

// countNodesTaken counts the nodes the engine hands out while fn runs.
func countNodesTaken(t *testing.T, fn func()) int64 {
	t.Helper()
	var taken atomic.Int64
	nodeTakenHook = func() { taken.Add(1) }
	defer func() { nodeTakenHook = nil }()
	fn()
	return taken.Load()
}

// TestDuplicateTakesNoNode: the engine takes a node — from the pool or
// the heap — for the root and for each successor the visited set admits,
// and for nothing else: a duplicate is rejected on its fingerprint, before
// it exists. (The parent of this design built every successor first; on
// this instance it stepped about five per state admitted.)
func TestDuplicateTakesNoNode(t *testing.T) {
	p, err := baseline.NewToyBitRace(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := model.MustNewConfig(p, []int{0, 1, 0, 1})
	for _, order := range []string{OrderLevelSync, OrderAsync} {
		for _, workers := range []int{1, 2, 4} {
			var stats RunStats
			taken := countNodesTaken(t, func() {
				stats, err = RunFrontier(p, c, []int{0, 1, 2, 3}, ExploreLimits{MaxConfigs: 1000000},
					EngineOptions{Order: order, Reduction: ReduceSym, Workers: workers},
					func(int, *Node, *View) error { return nil }, nil)
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Processed != 17263 || !stats.Complete {
				t.Fatalf("%s w%d: visited %d (complete %t), want 17263, complete", order, workers, stats.Processed, stats.Complete)
			}
			if taken != int64(stats.Processed) {
				t.Errorf("%s w%d: %d nodes taken for %d states admitted (root included)", order, workers, taken, stats.Processed)
			}
		}
	}
}

// spinProto is one process swapping the same value into one object for
// ever: the root's successor is its own only successor.
type spinProto struct{}

func (spinProto) Name() string      { return "spin-proto" }
func (spinProto) NumProcesses() int { return 1 }
func (spinProto) Objects() []model.ObjectSpec {
	return []model.ObjectSpec{{Type: model.SwapType{}, Init: model.Int(1)}}
}
func (spinProto) Init(pid, input int) model.State { return stepSt{} }
func (spinProto) Poised(pid int, st model.State) (model.Op, bool) {
	return model.Op{Object: 0, Kind: model.OpSwap, Arg: model.Int(0)}, true
}
func (spinProto) Observe(pid int, st model.State, resp model.Value) model.State { return st }
func (spinProto) Decision(st model.State) (int, bool)                           { return 0, false }

// TestChunkOfDuplicatesBuildsNothing: a chunk whose every successor the
// visited set already holds queues nothing and takes no node, under either
// order.
func TestChunkOfDuplicatesBuildsNothing(t *testing.T) {
	c := model.MustNewConfig(spinProto{}, []int{0})
	for _, order := range []string{OrderLevelSync, OrderAsync} {
		var stats RunStats
		var err error
		taken := countNodesTaken(t, func() {
			stats, err = RunFrontier(spinProto{}, c, []int{0}, ExploreLimits{MaxConfigs: 100}, EngineOptions{Order: order, Workers: 2},
				func(int, *Node, *View) error { return nil }, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Processed != 2 || !stats.Complete || taken != 2 {
			t.Errorf("%s: visited %d (complete %t) on %d nodes, want 2 states, complete, 2 nodes", order, stats.Processed, stats.Complete, taken)
		}
	}
}

// gridProto is two processes taking `steps` steps each that leave no trace
// but their own counters: level d of its space is the ways to split d
// steps between them.
type gridProto struct{ stepProto }

func (p gridProto) Poised(pid int, st model.State) (model.Op, bool) {
	if s := st.(stepSt); s.c >= s.cap {
		return model.Op{}, false
	}
	return model.Op{Object: 0, Kind: model.OpSwap, Arg: model.Int(0)}, true
}

// TestChunkSizedLevels: levels of one node, of a few, and of exactly
// chunkSize nodes (the widest, level 255 of a 256 x 256 grid) are each
// drained whole — every state visited once, the level sizes the grid's —
// whoever drains them.
func TestChunkSizedLevels(t *testing.T) {
	p := gridProto{stepProto{n: 2, steps: chunkSize - 1}}
	c := model.MustNewConfig(p, []int{0, 0})
	var want []int
	for d := 0; d <= 2*p.steps; d++ {
		want = append(want, min(d, 2*p.steps-d)+1)
	}
	for _, order := range []string{OrderLevelSync, OrderAsync} {
		for _, workers := range []int{1, 2} {
			var levels []int
			opts := EngineOptions{Order: order, Workers: workers}
			if order == OrderLevelSync {
				opts.Progress = func(pr Progress) { levels = append(levels, pr.FrontierSize) }
			}
			stats, err := RunFrontier(p, c, []int{0, 1}, ExploreLimits{MaxConfigs: 1000000}, opts,
				func(int, *Node, *View) error { return nil }, nil)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Processed != chunkSize*chunkSize || !stats.Complete {
				t.Errorf("%s w%d: visited %d (complete %t), want %d, complete", order, workers, stats.Processed, stats.Complete, chunkSize*chunkSize)
			}
			if order == OrderLevelSync && fmt.Sprint(levels) != fmt.Sprint(want) {
				t.Errorf("w%d: levels %v, want %v", workers, levels, want)
			}
		}
	}
}

// TestChunkCutShort: a visit error, and a cancel, in the middle of a chunk
// end the run with that error. A failed chunk's successors are dropped
// with it rather than claimed — nothing is visited after the failing node
// by its worker, and no node is taken for a successor.
func TestChunkCutShort(t *testing.T) {
	p := stepProto{n: 12, steps: 1} // levels of 1, 12, 66, 220, ... nodes
	c := model.MustNewConfig(p, make([]int, p.n))
	pids := make([]int, p.n)
	for i := range pids {
		pids[i] = i
	}
	boom := errors.New("boom")
	for _, order := range []string{OrderLevelSync, OrderAsync} {
		visits := 0
		taken := countNodesTaken(t, func() {
			_, err := RunFrontier(p, c, pids, ExploreLimits{MaxConfigs: 100000}, EngineOptions{Order: order, Workers: 1},
				func(_ int, n *Node, _ *View) error {
					visits++
					if visits == 20 {
						return boom
					}
					return nil
				}, nil)
			if !errors.Is(err, boom) {
				t.Errorf("%s: err = %v, want the visit error", order, err)
			}
		})
		if visits != 20 {
			t.Errorf("%s: %d visits, want the run to stop at the 20th", order, visits)
		}
		// Under levelsync the failing chunk is level 2's first: the root,
		// level 1's 12 and level 2's 66 nodes exist, and none of level 3.
		if order == OrderLevelSync && taken != 1+12+66 {
			t.Errorf("levelsync: %d nodes taken, want 79 (no successor of the failed chunk)", taken)
		}

		// The Ctx watcher lands asynchronously, so how far the run gets
		// past the cancel is not pinned; that it stops short of the 4,096
		// states, with the cancel as its error and no state visited twice,
		// is. Every visit after the cancel waits a millisecond, which gives
		// the watcher seconds to land before the space could run out.
		ctx, cancel := context.WithCancel(context.Background())
		seen := map[uint64]bool{}
		_, err := RunFrontier(p, c, pids, ExploreLimits{MaxConfigs: 100000}, EngineOptions{Order: order, Workers: 1, Ctx: ctx},
			func(_ int, n *Node, _ *View) error {
				if seen[n.Fingerprint()] {
					t.Errorf("%s: state %x visited twice", order, n.Fingerprint())
				}
				seen[n.Fingerprint()] = true
				if len(seen) == 20 {
					cancel()
				}
				if len(seen) >= 20 {
					time.Sleep(time.Millisecond)
				}
				return nil
			}, nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", order, err)
		}
		if len(seen) < 20 || len(seen) >= 1<<p.n {
			t.Errorf("%s: %d visits, want the run to stop after the cancel (the 20th) and before the space runs out", order, len(seen))
		}
	}
}
