package check_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/model"
)

// admissionHash runs the engine at one worker and hashes every admitted
// node's (depth, fingerprint, generator pid) in visit order — at one
// worker a pure function of the instance, the limits and the store. proj
// hashes the (depth, pid) projection alone, which does not depend on how
// fingerprints are defined, only on which nodes are admitted in which
// order.
func admissionHash(t *testing.T, p model.Protocol, inputs []int, limits check.ExploreLimits, eng check.EngineOptions) (full, proj uint64, visited int) {
	t.Helper()
	c := model.MustNewConfig(p, inputs)
	pids := make([]int, p.NumProcesses())
	for i := range pids {
		pids[i] = i
	}
	eng.Workers = 1
	if eng.Store == check.StoreSpill {
		eng.MemBudget = 16 << 10 // the visited set really spills
	}
	h, hp := fnv.New64a(), fnv.New64a()
	var rec [20]byte
	stats, err := check.RunFrontier(p, c, pids, limits, eng, func(_ int, n *check.Node, _ *check.View) error {
		binary.LittleEndian.PutUint32(rec[0:], uint32(n.Depth))
		binary.LittleEndian.PutUint64(rec[4:], n.Fingerprint())
		binary.LittleEndian.PutUint64(rec[12:], uint64(int64(n.Pid)))
		h.Write(rec[:])
		hp.Write(rec[0:4])
		hp.Write(rec[12:20])
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h.Sum64(), hp.Sum64(), stats.Processed
}

// TestGoldenAdmissionSequence pins the one-worker admission sequence —
// which nodes are admitted, at what depth, generated by which pid, visited
// in what order — to one golden per instance, whatever the store. The
// claim-before-build expansion (commit a525cd0) moved none of it; both
// stores cut a budget-truncated last level by the same rule and hand it
// over in admission order, so the capped instance has one golden too.
// The (depth, pid) projection is pinned beside the full hash: redefining
// the orbit-canonical fingerprint as a class-sum hash moved the sym rows'
// full hashes but not their projection, since the quotient admits the
// same orbit members in the same order.
func TestGoldenAdmissionSequence(t *testing.T) {
	toy, err := baseline.NewToyBitRace(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		p       model.Protocol
		inputs  []int
		limits  check.ExploreLimits
		eng     check.EngineOptions
		visited int
		golden  uint64
		proj    uint64
	}{
		{"algorithm1 n=3 k=1 m=2 max=2000", core.MustNew(core.Params{N: 3, K: 1, M: 2}), []int{0, 1, 1},
			check.ExploreLimits{MaxConfigs: 2000}, check.EngineOptions{}, 2000, 0x43e4fdeb8a5c7b3e, 0xf971ed985f8f2074},
		{"toybit n=4 sym+sleep", toy, []int{0, 1, 0, 1},
			check.ExploreLimits{MaxConfigs: 1000000}, check.EngineOptions{Reduction: check.ReduceSymSleep}, 17263, 0xc5392c9b98d29f98, 0x0b11e2628f16852a},
		// sym+sleep is sym's synonym now, and sleep sets only ever changed
		// which successors were generated, not which were admitted.
		{"toybit n=4 sym", toy, []int{0, 1, 0, 1},
			check.ExploreLimits{MaxConfigs: 1000000}, check.EngineOptions{Reduction: check.ReduceSym}, 17263, 0xc5392c9b98d29f98, 0x0b11e2628f16852a},
	} {
		for _, store := range []string{check.StoreMem, check.StoreSpill} {
			eng := tc.eng
			eng.Store = store
			got, proj, visited := admissionHash(t, tc.p, tc.inputs, tc.limits, eng)
			if got != tc.golden || proj != tc.proj || visited != tc.visited {
				t.Errorf("%s store=%s: admission hash %#x, (depth, pid) hash %#x over %d nodes, want %#x, %#x over %d",
					tc.name, store, got, proj, visited, tc.golden, tc.proj, tc.visited)
			}
		}
	}
}

// TestContendedClaims: eight workers claiming under the one claim lock —
// more than the cores any CI cell has, so lock holders are preempted — lose
// and duplicate nothing: the 90,488-state instance of
// TestExhaustiveOrbitCount comes out whole.
func TestContendedClaims(t *testing.T) {
	p, err := baseline.NewToyBitRace(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := model.MustNewConfig(p, []int{0, 1, 0, 1, 0})
	res, err := check.ExploreOpts(p, c, []int{0, 1, 2, 3, 4}, 0, check.ExploreOptions{
		Limits: check.ExploreLimits{MaxConfigs: 1000000},
		Engine: check.EngineOptions{Reduction: check.ReduceSym, Workers: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 90488 || !res.Complete || !reflect.DeepEqual(res.DecidedValues, []int{0, 1}) {
		t.Errorf("visited %d (complete %t) deciding %v, want 90488 (complete) deciding [0 1]", res.Visited, res.Complete, res.DecidedValues)
	}
}

// TestSpillReloadEqualsOriginalParallel extends TestSpillReloadEqualsOriginal
// past one worker: with several workers claiming into the shared delta and
// spooling to their own segments, under a budget that spills the visited
// set at every barrier, what the spill store hands back level by level is
// the in-memory store's set — every configuration once, with the
// fingerprint, depth and key it was admitted under. (Which generator's pid
// a node carries is arrival order's choice past one worker, so it is not
// compared.)
func TestSpillReloadEqualsOriginalParallel(t *testing.T) {
	p, err := baseline.NewToyBitRace(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := model.MustNewConfig(p, []int{0, 1, 0, 1})
	for _, exact := range []bool{false, true} {
		visit := func(store string, workers int) map[string]string {
			var mu sync.Mutex
			seen := map[string]string{}
			_, err := check.RunFrontier(p, c, []int{0, 1, 2, 3}, check.ExploreLimits{MaxConfigs: 1000000, MaxDepth: 9},
				check.EngineOptions{Workers: workers, StringKeys: exact, Store: store, MemBudget: spillBudget(store, 1)},
				func(_ int, n *check.Node, v *check.View) error {
					cfg := v.Config()
					mu.Lock()
					defer mu.Unlock()
					key := cfg.Key()
					if _, twice := seen[key]; twice {
						t.Errorf("exact=%t %s w%d: configuration %q visited twice", exact, store, workers, key)
					}
					seen[key] = fmt.Sprintf("fp %#x depth %d", n.Fingerprint(), n.Depth)
					return nil
				}, nil)
			if err != nil {
				t.Fatalf("exact=%t %s w%d: %v", exact, store, workers, err)
			}
			return seen
		}
		want := visit(check.StoreMem, 1)
		if len(want) < 2000 {
			t.Fatalf("exact=%t: only %d configurations within the cap", exact, len(want))
		}
		for _, workers := range []int{2, 4} {
			if got := visit(check.StoreSpill, workers); !reflect.DeepEqual(got, want) {
				t.Errorf("exact=%t w%d: spill store visited %d configurations, mem store %d, or admitted some differently", exact, workers, len(got), len(want))
			}
		}
	}
}
