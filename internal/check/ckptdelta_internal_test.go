package check

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// TestCheckpointDeltasHoldEachEntryOnce: a generation's visited set is the
// union of the deltas visited-1 … visited-gen, and at every barrier that
// union holds each admitted entry — the root's included — exactly once,
// as many as the manifest's Admitted, and no other: exactly the entries of
// the configurations at the manifest's next depth or above. The budget cut
// of the closing level drops entries the run never admits, and the spill
// store revokes entries it finds in a run, admitted twice by the table;
// neither may reach a delta. Every cell runs the same budget-bound
// instance on the mem store and the spill store at 4 KB, with a snapshot
// at every barrier and at every third (a delta spanning two barriers that
// wrote none), under fingerprint and exact keys.
func TestCheckpointDeltasHoldEachEntryOnce(t *testing.T) {
	p := core.MustNew(core.Params{N: 3, K: 1, M: 2})
	c := model.MustNewConfig(p, []int{0, 1, 0})
	pids := []int{0, 1, 2}
	limits := ExploreLimits{MaxConfigs: 4000}
	for _, store := range []string{StoreMem, StoreSpill} {
		for _, every := range []int{1, 3} {
			for _, exact := range []bool{false, true} {
				name := fmt.Sprintf("%s/every%d/exact=%t", store, every, exact)
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					type snapshot struct {
						man   ckptManifest
						union map[entry]int
					}
					var snaps []snapshot
					opts := EngineOptions{Workers: 2, Store: store, StringKeys: exact, Checkpoint: dir, CheckpointEvery: every,
						Progress: func(Progress) {
							raw, err := os.ReadFile(ckptManifestPath(dir))
							if os.IsNotExist(err) {
								return // no due barrier yet
							}
							if err != nil {
								t.Fatal(err)
							}
							var s snapshot
							if err := json.Unmarshal(raw, &s.man); err != nil {
								t.Fatal(err)
							}
							s.union = map[entry]int{}
							for g := 1; g <= s.man.Gen; g++ {
								r, err := openEntries(ckptGenPath(dir, "visited", g), artifactVisited)
								if err != nil {
									t.Fatal(err)
								}
								err = r.each(func(fp uint64, key string) error {
									s.union[entry{fp, key}]++
									return nil
								})
								r.close()
								if err != nil {
									t.Fatal(err)
								}
							}
							snaps = append(snaps, s)
						}}
					if store == StoreSpill {
						opts.MemBudget = 4 << 10
					}
					var mu sync.Mutex
					depthOf := map[entry]int{}
					stats, err := RunFrontier(p, c, pids, limits, opts, func(_ int, n *Node, v *View) error {
						cfg := v.Config()
						e := entry{fp: n.fp}
						if exact { // a delta's exact key is the configuration's encoding
							e.key = string(cfg.AppendEncoding(nil))
						}
						mu.Lock()
						defer mu.Unlock()
						depthOf[e] = n.Depth
						return nil
					}, nil)
					if err != nil {
						t.Fatal(err)
					}
					if stats.Complete || stats.Processed != limits.MaxConfigs {
						t.Fatalf("visited %d (complete %t); the cell wants a run the budget cuts", stats.Processed, stats.Complete)
					}
					if store == StoreSpill && (stats.Store.RunsWritten == 0 || stats.Store.PrefilterHits == 0) {
						t.Fatalf("the spill store wrote %d runs and met %d probable duplicates; the cell revokes nothing",
							stats.Store.RunsWritten, stats.Store.PrefilterHits)
					}
					if len(snaps) == 0 {
						t.Fatal("no generation was committed")
					}
					for _, s := range snaps {
						total := 0
						for e, k := range s.union {
							total += k
							if k != 1 {
								t.Errorf("gen %d: entry %x written %d times", s.man.Gen, e.fp, k)
							}
							if d, ok := depthOf[e]; !ok || d > s.man.NextDepth {
								t.Errorf("gen %d (next depth %d): entry %x of a configuration at depth %d (visited %t)",
									s.man.Gen, s.man.NextDepth, e.fp, d, ok)
							}
						}
						if int64(total) != s.man.Admitted {
							t.Errorf("gen %d: the deltas hold %d entries, the manifest admits %d", s.man.Gen, total, s.man.Admitted)
						}
						want := 0
						for _, d := range depthOf {
							if d <= s.man.NextDepth {
								want++
							}
						}
						if len(s.union) != want {
							t.Errorf("gen %d: the deltas hold %d distinct entries, the run visited %d at depth %d or above",
								s.man.Gen, len(s.union), want, s.man.NextDepth)
						}
					}
				})
			}
		}
	}
}
