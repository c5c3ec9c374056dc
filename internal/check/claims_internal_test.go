package check

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// Internal tests for the provenance claims column (claimState.claims): a
// level's admissions credited by their entry index in the store's delta,
// less the delta's entry count when the level began.

// provenancePaths runs the bound instance and returns every visited
// node's path by its configuration's key, and the run's stats.
func provenancePaths(t *testing.T, limits ExploreLimits, eng EngineOptions) (map[string][]byte, RunStats) {
	t.Helper()
	p, c, pids := boundInstance()
	paths := map[string][]byte{}
	var mu sync.Mutex
	stats, err := RunFrontier(p, c, pids, limits, eng, func(_ int, n *Node, v *View) error {
		key := v.Config().Key()
		mu.Lock()
		defer mu.Unlock()
		paths[key] = slices.Clone(n.Path())
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return paths, stats
}

// samePaths reports the first of got's nodes whose path is not want's.
func samePaths(got, want map[string][]byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d nodes visited, want %d", len(got), len(want))
	}
	for key, path := range got {
		if w, ok := want[key]; !ok || !slices.Equal(path, w) {
			return fmt.Errorf("a node at depth %d has path %v, want %v (visited: %t)", len(path), path, w, ok)
		}
	}
	return nil
}

// TestProvenanceClaimColumn: the provenance paths do not depend on how the
// delta numbers its entries.
//
//   - Under a budget that flushes the delta at every barrier, so that
//     every level's entry indices restart at 0, every visited node's path
//     is the resident run's, at 1, 2 and 4 workers under both keyings. The
//     instance's levels fold claims: a run that keeps first-claim paths (a
//     checkpointing one) gives some nodes other paths. A duplicate of an
//     entry an earlier level admitted (index below the level's base) takes
//     no override.
//   - On the resident store's closing level, where the cut bound drops
//     admissions before they are built, every node the run visits has the
//     path it has in a run capped at that depth instead, which builds the
//     whole level: a duplicate of a dropped admission takes no claim, and
//     the dropped admissions' no-claim entries keep the column aligned
//     with the delta's indices.
func TestProvenanceClaimColumn(t *testing.T) {
	whole := ExploreLimits{MaxConfigs: 1 << 30, MaxDepth: boundClosing - 1}
	for _, exact := range []bool{false, true} {
		name := fmt.Sprintf("exact=%t", exact)
		want, _ := provenancePaths(t, whole, EngineOptions{Workers: 1, StringKeys: exact, Provenance: true})
		first, _ := provenancePaths(t, whole, EngineOptions{Workers: 1, StringKeys: exact, Checkpoint: t.TempDir()})
		if samePaths(first, want) == nil {
			t.Fatalf("%s: every first-claim path is the provenance path: the instance folds no claim", name)
		}
		for _, workers := range []int{1, 2, 4} {
			got, stats := provenancePaths(t, whole, EngineOptions{Workers: workers, StringKeys: exact, Provenance: true,
				Store: StoreSpill, MemBudget: 1})
			if stats.Store.RunsWritten < stats.Levels-1 {
				t.Fatalf("%s w%d: %d runs written over %d levels: the delta was not flushed at every barrier",
					name, workers, stats.Store.RunsWritten, stats.Levels)
			}
			if err := samePaths(got, want); err != nil {
				t.Errorf("%s w%d, delta flushed at every barrier: %v", name, workers, err)
			}
		}

		capped, _ := provenancePaths(t, ExploreLimits{MaxConfigs: 1 << 30, MaxDepth: boundClosing + 1},
			EngineOptions{Workers: 1, StringKeys: exact, Provenance: true})
		for _, workers := range []int{1, 2} {
			got, stats := provenancePaths(t, ExploreLimits{MaxConfigs: boundBudget},
				EngineOptions{Workers: workers, StringKeys: exact, Provenance: true})
			if stats.Processed != boundBudget {
				t.Fatalf("%s w%d: visited %d, want %d", name, workers, stats.Processed, boundBudget)
			}
			for key, path := range got {
				if w := capped[key]; !slices.Equal(path, w) {
					t.Fatalf("%s w%d, closing level under the cut bound: a node at depth %d has path %v, the capped run's %v",
						name, workers, len(path), path, w)
				}
			}
		}
	}
}
