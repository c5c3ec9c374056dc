package check_test

import (
	"runtime"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/model"
)

// allocBytesPerState bounds what one visited state of the guard's run
// allocates, in bytes: nodes, the visited table, the frontier queues and
// everything else the run allocates, divided by the states visited. It is
// the 209 bytes measured with nodes that hold ref vectors into the run's
// slot dictionary (132 bytes a node) plus 25%; nodes that held their
// configuration as interface slots (328 bytes a node) measured 343.
const allocBytesPerState = 261

// exactAllocBytesPerState is allocBytesPerState for the same run under
// exact keys: the 270 bytes measured with ref-tuple keys plus 25%; keys
// encoded whole into a byte arena measured 391.
const exactAllocBytesPerState = 337

// provenanceAllocBytesPerState is allocBytesPerState for the same run under
// exact keys with provenance, the path every certificate search takes:
// the 385 bytes measured with each level's claims in a column indexed by
// the visited table's entry index, sized from the last level's growth
// (385.2 at GOMAXPROCS 1 and 2, 385.3 at 4, 400.4 under -race), plus 25%.
// The claims in an entryMap measured 503; the column grown by append
// alone, 431.
const provenanceAllocBytesPerState = 482

// TestAllocBytesPerState: Table 1's row 3 (Algorithm 1, n=4, k=1, m=3) at
// 100,000 states on one worker allocates at most allocBytesPerState bytes
// per visited state (runtime.MemStats.TotalAlloc, which counts every heap
// allocation, freed or not). The race detector does not change the count.
func TestAllocBytesPerState(t *testing.T) {
	allocPerState(t, check.EngineOptions{Workers: 1}, allocBytesPerState)
}

// TestExactAllocBytesPerState is TestAllocBytesPerState under exact keys
// (StringKeys), bounded by exactAllocBytesPerState.
func TestExactAllocBytesPerState(t *testing.T) {
	allocPerState(t, check.EngineOptions{Workers: 1, StringKeys: true}, exactAllocBytesPerState)
}

// TestProvenanceAllocBytesPerState is TestAllocBytesPerState under exact
// keys with provenance (every node keeps its schedule, each level folds
// its claims), bounded by provenanceAllocBytesPerState.
func TestProvenanceAllocBytesPerState(t *testing.T) {
	allocPerState(t, check.EngineOptions{Workers: 1, StringKeys: true, Provenance: true}, provenanceAllocBytesPerState)
}

func allocPerState(t *testing.T, eng check.EngineOptions, bound float64) {
	p := core.MustNew(core.Params{N: 4, K: 1, M: 3})
	c := model.MustNewConfig(p, []int{0, 1, 2, 0})
	opts := check.ExploreOptions{Limits: check.ExploreLimits{MaxConfigs: 100_000}, Engine: eng}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := check.ExploreOpts(p, c, []int{0, 1, 2, 3}, 1, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 100_000 {
		t.Fatalf("visited %d states, want 100000", res.Visited)
	}
	perState := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Visited)
	t.Logf("%.1f bytes allocated per visited state", perState)
	if perState > bound {
		t.Errorf("%.1f bytes allocated per visited state, bound %.0f", perState, bound)
	}
}
