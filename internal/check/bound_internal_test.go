package check

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// boundInstance is Algorithm 1 at n=4 k=2 m=3 (inputs pid % m) under a
// budget of 40,001: levels 0..8 are whole, level 9 (17,048 nodes) is the
// closing one — it reaches 31,707 new configurations, of which the cut
// keeps the 10,144 smallest — and level 10 is visit-only.
func boundInstance() (model.Protocol, *model.Config, []int) {
	p := core.MustNew(core.Params{N: 4, K: 2, M: 3})
	return p, model.MustNewConfig(p, []int{0, 1, 2, 0}), []int{0, 1, 2, 3}
}

const (
	boundBudget  = 40001
	boundClosing = 9     // the closing level's depth
	boundKept    = 10144 // what its cut keeps
)

// levelNodes runs the engine over the bound instance and returns the
// nodes taken while each level was expanded, by depth, and the
// fingerprints visited at each depth.
func levelNodes(t *testing.T, limits ExploreLimits, workers int) (built map[int]int64, fps map[int][]uint64, stats RunStats) {
	t.Helper()
	p, c, pids := boundInstance()
	var taken atomic.Int64
	nodeTakenHook = func() { taken.Add(1) }
	defer func() { nodeTakenHook = nil }()
	built, fps = map[int]int64{}, map[int][]uint64{}
	last := int64(0)
	var mu sync.Mutex
	stats, err := RunFrontier(p, c, pids, limits, EngineOptions{Workers: workers, Progress: func(pr Progress) {
		now := taken.Load()
		built[pr.Depth], last = now-last, now
	}}, func(_ int, n *Node, _ *View) error {
		mu.Lock()
		defer mu.Unlock()
		fps[n.Depth] = append(fps[n.Depth], n.fp)
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return built, fps, stats
}

// TestClosingLevelBuildsUnderBound: on the resident store the closing
// level of a budget-bound run builds only the claims its cut can keep
// (levelBound), and that changes nothing the run reports: the kept level
// is the smallest of the untruncated one, and the verdict is the spill
// store's — which keeps every admission to the barrier — at every worker
// count, under both keyings, with provenance, and across a kill at the
// closing barrier and a resume. (The same verdict under degenerate slot
// hashes, where every admission falls in one bucket, is checked in the
// model package's TestDegenerateHashClosingLevel, which owns that seam.)
func TestClosingLevelBuildsUnderBound(t *testing.T) {
	built, fps, stats := levelNodes(t, ExploreLimits{MaxConfigs: boundBudget}, 1)
	if stats.Processed != boundBudget || stats.Complete || stats.Levels != boundClosing+2 {
		t.Fatalf("visited %d over %d levels (complete %t), want %d over %d, incomplete",
			stats.Processed, stats.Levels, stats.Complete, boundBudget, boundClosing+2)
	}
	t.Logf("the closing level built %d nodes", built[boundClosing])
	if got := built[boundClosing]; got > 23000 {
		t.Errorf("the closing level built %d nodes; the bound should leave at most 23,000 of its 31,707 admissions", got)
	}
	if got := built[boundClosing+1]; got != 0 {
		t.Errorf("the visit-only level built %d nodes", got)
	}

	// The kept level is the 10,144 smallest fingerprints of the whole
	// level a run capped at its depth reaches.
	_, whole, _ := levelNodes(t, ExploreLimits{MaxConfigs: 1 << 30, MaxDepth: boundClosing + 1}, 1)
	all := slices.Clone(whole[boundClosing+1])
	if len(all) != 31707 {
		t.Fatalf("the untruncated level holds %d configurations, want 31,707", len(all))
	}
	slices.Sort(all)
	kept := slices.Clone(fps[boundClosing+1])
	slices.Sort(kept)
	if !slices.Equal(kept, all[:boundKept]) {
		t.Errorf("the kept level (%d nodes) is not the %d smallest of the untruncated level", len(kept), boundKept)
	}

	p, c, pids := boundInstance()
	verdict := func(name string, eng EngineOptions) string {
		t.Helper()
		res, err := ExploreOpts(p, c, pids, 2, ExploreOptions{Limits: ExploreLimits{MaxConfigs: boundBudget}, Engine: eng})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return fmt.Sprintf("visited %d complete %t decided %v together %d violation %t@%d/%#x",
			res.Visited, res.Complete, res.DecidedValues, res.MaxDecidedTogether,
			res.AgreementViolation != nil, res.ViolationDepth, res.ViolationFP)
	}
	for _, exact := range []bool{false, true} {
		want := verdict("spill", EngineOptions{Workers: 1, StringKeys: exact, Store: StoreSpill})
		check := func(name string, eng EngineOptions) {
			t.Helper()
			eng.StringKeys = exact
			name = fmt.Sprintf("exact=%t %s", exact, name)
			if got := verdict(name, eng); got != want {
				t.Errorf("%s: %s; the spill store: %s", name, got, want)
			}
		}
		for _, workers := range []int{1, 2, 4} {
			check(fmt.Sprintf("w%d", workers), EngineOptions{Workers: workers})
		}
		check("provenance", EngineOptions{Workers: 2, Provenance: true})

		// Killed at the closing barrier, whose snapshot holds the cut
		// level, and at the one before, whose resume expands the closing
		// level under the bound again; then resumed.
		for _, killAt := range []int{boundClosing - 1, boundClosing} {
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			eng := EngineOptions{Workers: 2, StringKeys: exact, Checkpoint: dir, Ctx: ctx,
				Progress: func(pr Progress) {
					if pr.Depth == killAt {
						cancel()
					}
				}}
			_, err := ExploreOpts(p, c, pids, 2, ExploreOptions{Limits: ExploreLimits{MaxConfigs: boundBudget}, Engine: eng})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("exact=%t kill at %d: the run ended with %v, not the kill", exact, killAt, err)
			}
			check(fmt.Sprintf("resumed after a kill at %d", killAt), EngineOptions{Workers: 2, Checkpoint: dir})
		}
	}
}

// TestBoundCutOnExactRemainder: a level whose remainder the previous
// barrier spent exactly (R = 0) builds nothing under the bound, so its
// built count lands on R — and the run is still reported truncated,
// because the bound dropped what it admitted.
func TestBoundCutOnExactRemainder(t *testing.T) {
	const throughLevel8 = 12809 // levels 0..8 of the bound instance
	for _, workers := range []int{1, 2} {
		built, _, stats := levelNodes(t, ExploreLimits{MaxConfigs: throughLevel8}, workers)
		if stats.Processed != throughLevel8 || stats.Levels != 9 {
			t.Fatalf("w%d: visited %d over %d levels, want %d over 9", workers, stats.Processed, stats.Levels, throughLevel8)
		}
		if built[8] != 0 {
			t.Errorf("w%d: the level with no remainder built %d nodes", workers, built[8])
		}
		if stats.Complete {
			t.Errorf("w%d: reported complete, but the last level's successors were dropped", workers)
		}
	}
}
