package check_test

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/model"
)

// TestExploreSpillParallelMatchesSequential is the store-equivalence
// contract: the disk-spilling store must visit exactly the configuration
// set of the sequential string-key reference, for every worker count and
// both keying modes, even under a budget tiny enough to force a spill at
// every level barrier.
func TestExploreSpillParallelMatchesSequential(t *testing.T) {
	for _, tc := range exploreCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			c := model.MustNewConfig(tc.p, tc.inputs)
			want := check.ExploreSequential(tc.p, c, tc.pids, tc.k, tc.limits)
			for _, workers := range []int{1, 3} {
				for _, stringKeys := range []bool{false, true} {
					for _, budget := range []int64{0, 1} { // default, and force-spill-every-level
						got := exploreT(t, tc.p, c, tc.pids, tc.k, check.ExploreOptions{
							Limits: tc.limits,
							Engine: check.EngineOptions{
								Workers: workers, StringKeys: stringKeys,
								Store: check.StoreSpill, MemBudget: budget,
							},
						})
						tag := fmt.Sprintf("workers=%d stringKeys=%v budget=%d", workers, stringKeys, budget)
						if got.Visited != want.Visited {
							t.Errorf("%s: Visited = %d, want %d", tag, got.Visited, want.Visited)
						}
						if got.Complete != want.Complete {
							t.Errorf("%s: Complete = %v, want %v", tag, got.Complete, want.Complete)
						}
						if !reflect.DeepEqual(got.DecidedValues, want.DecidedValues) {
							t.Errorf("%s: DecidedValues = %v, want %v", tag, got.DecidedValues, want.DecidedValues)
						}
						if got.MaxDecidedTogether != want.MaxDecidedTogether {
							t.Errorf("%s: MaxDecidedTogether = %d, want %d", tag, got.MaxDecidedTogether, want.MaxDecidedTogether)
						}
						if (got.AgreementViolation != nil) != (want.AgreementViolation != nil) {
							t.Errorf("%s: violation presence = %v, want %v", tag,
								got.AgreementViolation != nil, want.AgreementViolation != nil)
						}
						if got.Store.Kind != check.StoreSpill {
							t.Errorf("%s: store kind %q, want %q", tag, got.Store.Kind, check.StoreSpill)
						}
						if budget == 1 && got.Store.BytesSpilled == 0 {
							t.Errorf("%s: no bytes spilled under a 1-byte budget", tag)
						}
					}
				}
			}
		})
	}
}

// TestSpillBeyondBudgetWorkload is the beyond-RAM acceptance scenario: an
// exploration whose visited set is far larger than the configured budget
// must complete with real spills (runs written, fingerprints merged,
// frontier segments spooled) and agree with the in-memory store on every
// aggregate.
func TestSpillBeyondBudgetWorkload(t *testing.T) {
	p := core.MustNew(core.Params{N: 4, K: 1, M: 3})
	c := model.MustNewConfig(p, []int{0, 1, 2, 0})
	pids := []int{0, 1, 2, 3}
	limits := check.ExploreLimits{MaxConfigs: 20000}

	mem := exploreT(t, p, c, pids, 1, check.ExploreOptions{Limits: limits})
	if mem.Store.Kind != check.StoreMem || mem.Store.PeakResidentBytes == 0 {
		t.Fatalf("mem store stats not reported: %+v", mem.Store)
	}

	// 20000 visited fingerprints need ~160KB resident; an 8KB budget is
	// exceeded within a few levels, forcing spills and run merges.
	spill := exploreT(t, p, c, pids, 1, check.ExploreOptions{
		Limits: limits,
		Engine: check.EngineOptions{Store: check.StoreSpill, MemBudget: 8 << 10},
	})
	if spill.Visited != mem.Visited || spill.Complete != mem.Complete ||
		!reflect.DeepEqual(spill.DecidedValues, mem.DecidedValues) {
		t.Errorf("spill result diverged: visited %d/%d complete %v/%v decided %v/%v",
			spill.Visited, mem.Visited, spill.Complete, mem.Complete,
			spill.DecidedValues, mem.DecidedValues)
	}
	st := spill.Store
	if st.Kind != check.StoreSpill || st.BytesSpilled == 0 || st.RunsWritten == 0 {
		t.Errorf("expected real spills, got %+v", st)
	}
	if st.PeakResidentBytes == 0 {
		t.Errorf("peak resident bytes not tracked: %+v", st)
	}
}

// TestSpillDeterministicAcrossWorkers: the spill store preserves the
// engine's determinism guarantees — identical aggregates and truncation
// survivors for every worker count, including budget-truncated runs.
func TestSpillDeterministicAcrossWorkers(t *testing.T) {
	p := core.MustNew(core.Params{N: 3, K: 1, M: 2})
	inputs := []int{0, 1, 0}
	pids := []int{0, 1, 2}
	limits := check.ExploreLimits{MaxConfigs: 200}

	type snapshot struct {
		visited  int
		complete bool
		decided  []int
	}
	run := func(workers int, store string) snapshot {
		c := model.MustNewConfig(p, inputs)
		res := exploreT(t, p, c, pids, 1, check.ExploreOptions{
			Limits: limits,
			Engine: check.EngineOptions{Workers: workers, Store: store, MemBudget: spillBudget(store, 1)},
		})
		return snapshot{res.Visited, res.Complete, res.DecidedValues}
	}
	base := run(1, check.StoreMem)
	for _, workers := range []int{1, 2, 8} {
		if got := run(workers, check.StoreSpill); !reflect.DeepEqual(got, base) {
			t.Errorf("spill workers=%d: %+v != mem workers=1: %+v", workers, got, base)
		}
	}
}

// TestSpillProvenanceSchedules: with Provenance (the witness searches'
// mode) under a budget the frontier is spooled like any run's, and every
// node's schedule — its provenance path, read back from a segment and
// patched at take — replays to the node's own configuration while the
// dedup state spills too.
func TestSpillProvenanceSchedules(t *testing.T) {
	p := baseline.NewPairConsensus(2).WithProcesses(3)
	start := model.MustNewConfig(p, []int{0, 1, 1})
	stats, err := check.RunFrontier(p, start, []int{0, 1, 2}, check.ExploreLimits{},
		check.EngineOptions{Workers: 2, Provenance: true, Store: check.StoreSpill, MemBudget: 1},
		func(_ int, n *check.Node, v *check.View) error {
			cfg := v.Config()
			replay, err := model.Replay(p, start, n.Path())
			if err != nil {
				return fmt.Errorf("replaying path %v: %w", n.Path(), err)
			}
			if replay.Key() != cfg.Key() {
				return fmt.Errorf("path %v replays to %q, node holds %q", n.Path(), replay.Key(), cfg.Key())
			}
			return nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Store.BytesSpilled == 0 {
		t.Errorf("dedup state never spilled under a 1-byte budget: %+v", stats.Store)
	}
}

// spillBudget is the resident-byte budget b on the spill store and none
// on any other, which rejects a budget.
func spillBudget(store string, b int64) int64 {
	if store != check.StoreSpill {
		return 0
	}
	return b
}

// TestUnknownStoreRejected: a typo'd backend fails loudly, not silently
// in-memory.
func TestUnknownStoreRejected(t *testing.T) {
	p := baseline.NewPairConsensus(2)
	c := model.MustNewConfig(p, []int{0, 1})
	_, err := check.RunFrontier(p, c, []int{0, 1}, check.ExploreLimits{},
		check.EngineOptions{Store: "floppy"},
		func(int, *check.Node, *check.View) error { return nil }, nil)
	if err == nil {
		t.Fatal("unknown store accepted")
	}
}

// TestUnbudgetedStoreTouchesNoDisk: without a byte budget the store lives
// in RAM. A budget-bound row-3 run (Algorithm 1, N=4 K=1 M=3), whose
// closing level is truncated, creates no temporary directory, never
// creates the SpillDir it is handed, and reports itself as "mem" with
// nothing spilled and a nonzero resident peak, under either order.
func TestUnbudgetedStoreTouchesNoDisk(t *testing.T) {
	p := core.MustNew(core.Params{N: 4, K: 1, M: 3})
	c := model.MustNewConfig(p, []int{0, 1, 2, 0})
	const budget = 20000
	for _, order := range []string{check.OrderLevelSync, check.OrderAsync} {
		tmp := t.TempDir()
		t.Setenv("TMPDIR", tmp)
		spillDir := filepath.Join(t.TempDir(), "never")
		var levels []int
		res := exploreT(t, p, c, []int{0, 1, 2, 3}, 1, check.ExploreOptions{
			Limits: check.ExploreLimits{MaxConfigs: budget},
			Engine: check.EngineOptions{Workers: 2, Order: order, SpillDir: spillDir,
				Progress: func(pr check.Progress) { levels = append(levels, pr.Admitted) }},
		})
		if res.Visited != budget || res.Complete {
			t.Errorf("%s: visited %d (complete %v), want the budget %d, incomplete", order, res.Visited, res.Complete, budget)
		}
		if order == check.OrderLevelSync {
			// The same levels without the budget overshoot it somewhere;
			// that level is the one the budget cut back.
			free := levelAdmissions(t, p, []int{0, 1, 2, 0}, []int{0, 1, 2, 3}, len(levels))
			if j := slices.IndexFunc(free, func(a int) bool { return a > budget }); j < 0 || levels[j] != budget {
				t.Errorf("%s: admissions per level %v, unbudgeted %v: no level was truncated", order, levels, free)
			}
		}
		if ents, err := os.ReadDir(tmp); err != nil || len(ents) != 0 {
			t.Errorf("%s: TMPDIR holds %v (err %v), want nothing", order, ents, err)
		}
		if _, err := os.Stat(spillDir); !os.IsNotExist(err) {
			t.Errorf("%s: SpillDir exists after the run (stat err %v)", order, err)
		}
		if st := res.Store; st.Kind != check.StoreMem || st.BytesSpilled != 0 || st.PeakResidentBytes <= 0 {
			t.Errorf("%s: store stats %+v, want kind mem, 0 bytes spilled, a resident peak", order, st)
		}
	}
}

// levelAdmissions explores with a depth cap and returns the cumulative
// admitted count at each level barrier — the exact values at which a
// MaxConfigs budget lands on a level boundary.
func levelAdmissions(t *testing.T, p model.Protocol, inputs, pids []int, maxDepth int) []int {
	t.Helper()
	var admitted []int
	c := model.MustNewConfig(p, inputs)
	exploreT(t, p, c, pids, 1, check.ExploreOptions{
		Limits: check.ExploreLimits{MaxDepth: maxDepth},
		Engine: check.EngineOptions{Progress: func(pr check.Progress) {
			admitted = append(admitted, pr.Admitted)
		}},
	})
	return admitted
}

// TestBudgetTruncationExactLevelBoundary pins the budget-remainder guard
// at its boundary: when a level barrier lands with the admitted count
// exactly equal to MaxConfigs, the run is not yet closed, the next level
// still expands, and the barrier must then truncate with a remainder of
// exactly zero — visiting exactly MaxConfigs configurations and reporting
// the space incomplete. Off-by-one regressions in
// `maxNext = MaxConfigs - admittedBefore` (the old
// `keep = limits.MaxConfigs - (total - len(next))`) either panic on a
// negative slice bound or visit the wrong count. Checked across worker
// counts and both stores.
func TestBudgetTruncationExactLevelBoundary(t *testing.T) {
	p := core.MustNew(core.Params{N: 3, K: 1, M: 2})
	inputs := []int{0, 1, 0}
	pids := []int{0, 1, 2}

	admitted := levelAdmissions(t, p, inputs, pids, 6)
	if len(admitted) < 3 {
		t.Fatalf("need >= 3 levels, got %v", admitted)
	}
	// A mid-run boundary: deeper levels both exist and still grow.
	boundary := admitted[2]
	if boundary <= admitted[1] {
		t.Fatalf("level 2 admitted nothing new: %v", admitted)
	}

	for _, workers := range []int{1, 2, 7} {
		for _, store := range []string{check.StoreMem, check.StoreSpill} {
			for _, maxConfigs := range []int{boundary, boundary - 1, boundary + 1} {
				c := model.MustNewConfig(p, inputs)
				res := exploreT(t, p, c, pids, 1, check.ExploreOptions{
					Limits: check.ExploreLimits{MaxConfigs: maxConfigs},
					Engine: check.EngineOptions{Workers: workers, Store: store, MemBudget: spillBudget(store, 1)},
				})
				tag := fmt.Sprintf("workers=%d store=%s max=%d", workers, store, maxConfigs)
				if res.Visited != maxConfigs {
					t.Errorf("%s: visited %d, want exactly the budget", tag, res.Visited)
				}
				if res.Complete {
					t.Errorf("%s: run reported complete despite truncation", tag)
				}
			}
		}
	}
}

// TestTruncationStraddleDeterministicAcrossWorkers: when the admitted
// count straddles MaxConfigs mid-level, the surviving set is chosen by
// sorted fingerprint and must be identical — including the decided-value
// aggregate over the survivors — for every worker count and store.
func TestTruncationStraddleDeterministicAcrossWorkers(t *testing.T) {
	p := core.MustNew(core.Params{N: 4, K: 1, M: 3})
	inputs := []int{0, 1, 2, 0}
	pids := []int{0, 1, 2, 3}

	type snapshot struct {
		visited  int
		complete bool
		decided  []int
		maxTog   int
	}
	run := func(workers int, store string, maxConfigs int) snapshot {
		c := model.MustNewConfig(p, inputs)
		res := exploreT(t, p, c, pids, 1, check.ExploreOptions{
			Limits: check.ExploreLimits{MaxConfigs: maxConfigs},
			Engine: check.EngineOptions{Workers: workers, Store: store, MemBudget: spillBudget(store, 4<<10)},
		})
		return snapshot{res.Visited, res.Complete, res.DecidedValues, res.MaxDecidedTogether}
	}
	for _, maxConfigs := range []int{537, 2048} { // straddle levels at awkward offsets
		base := run(1, check.StoreMem, maxConfigs)
		if base.visited != maxConfigs || base.complete {
			t.Fatalf("max=%d: baseline visited %d complete %v, want truncated run", maxConfigs, base.visited, base.complete)
		}
		for _, workers := range []int{2, 5, 8} {
			for _, store := range []string{check.StoreMem, check.StoreSpill} {
				if got := run(workers, store, maxConfigs); !reflect.DeepEqual(got, base) {
					t.Errorf("max=%d workers=%d store=%s: %+v != %+v", maxConfigs, workers, store, got, base)
				}
			}
		}
	}
}

// TestSpillCompactionMatchesResident: at a budget small enough that every
// barrier flushes a sorted run (256 bytes, under what an empty 64-slot
// delta table is charged under either keying), so runs are compacted and
// re-encountered configurations pass the Bloom prefilter to the barrier
// merge, the spill store visits what the resident store visits under both
// keyings, on a run whose budget cuts its last level: the same count,
// decided values and most decided together, and the same configurations at
// the cut level.
func TestSpillCompactionMatchesResident(t *testing.T) {
	p := core.MustNew(core.Params{N: 4, K: 1, M: 3})
	c := model.MustNewConfig(p, []int{0, 1, 2, 0})
	pids := []int{0, 1, 2, 3}
	limits := check.ExploreLimits{MaxConfigs: 30011}

	type outcome struct {
		visited  int
		complete bool
		decided  []int
		maxTog   int
		lastCut  []string // the cut level's configurations, sorted
	}
	run := func(eng check.EngineOptions) (outcome, check.StoreStats) {
		res := exploreT(t, p, c, pids, 1, check.ExploreOptions{Limits: limits, Engine: eng})
		var mu sync.Mutex
		byDepth := map[int][]string{}
		_, err := check.RunFrontier(p, c, pids, limits, eng, func(_ int, n *check.Node, v *check.View) error {
			cfg := v.Config()
			mu.Lock()
			byDepth[n.Depth] = append(byDepth[n.Depth], cfg.Key())
			mu.Unlock()
			return nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		last := slices.Max(slices.Collect(maps.Keys(byDepth)))
		slices.Sort(byDepth[last])
		return outcome{res.Visited, res.Complete, res.DecidedValues, res.MaxDecidedTogether, byDepth[last]}, res.Store
	}
	for _, exact := range []bool{false, true} {
		want, _ := run(check.EngineOptions{Workers: 1, StringKeys: exact})
		if want.complete || want.visited != limits.MaxConfigs {
			t.Fatalf("exact=%t: resident run visited %d (complete %t), want a cut run", exact, want.visited, want.complete)
		}
		got, st := run(check.EngineOptions{Workers: 2, StringKeys: exact, Store: check.StoreSpill, MemBudget: 256})
		if st.RunsMerged == 0 || st.PrefilterHits == 0 {
			t.Errorf("exact=%t: runs merged %d, prefilter hits %d: the run exercises no compaction or barrier merge",
				exact, st.RunsMerged, st.PrefilterHits)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("exact=%t: spill visited %d (complete %t) deciding %v, %d together, %d at the cut level;"+
				" resident %d (complete %t) deciding %v, %d together, %d at the cut level (same set: %t)", exact,
				got.visited, got.complete, got.decided, got.maxTog, len(got.lastCut),
				want.visited, want.complete, want.decided, want.maxTog, len(want.lastCut),
				slices.Equal(got.lastCut, want.lastCut))
		}
	}
}
