package check

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/baseline"
	"repro/internal/model"
)

// TestExactKeysSplicedFromParents pins the invariant the exact stepper's
// memo and every store rest on: in string-key mode each visited node's
// key is, byte for byte, its own configuration's encoding — although only
// the root, checkpoint-replayed nodes and spill-reloaded nodes are ever
// encoded in full, and every other key is spliced from the parent's. It
// walks the exact cells of TestModeMatrix (both stores, 1, 2 and 4
// workers; the spill budget is small enough that frontiers reload from
// disk), with and without provenance, and each cell again killed at a
// barrier and resumed from its checkpoint by other workers on the other
// store.
func TestExactKeysSplicedFromParents(t *testing.T) {
	toybit, err := baseline.NewToyBitRace(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	protos := []struct {
		p      model.Protocol
		inputs []int
	}{
		{baseline.NewPairConsensus(2), []int{0, 1}},
		{toybit, []int{0, 1, 0}},
		{stepProto{n: 3, steps: 3}, []int{0, 0, 0}},
	}
	limits := ExploreLimits{MaxConfigs: 100000, MaxDepth: 8}
	replayed := 0 // nodes visited by runs resumed from a mid-run snapshot
	for _, pc := range protos {
		start := model.MustNewConfig(pc.p, pc.inputs)
		pids := make([]int, pc.p.NumProcesses())
		for i := range pids {
			pids[i] = i
		}
		// walk runs one engine cell, checks every visited node and returns
		// how many it visited in this process.
		walk := func(name string, opts EngineOptions) (int, error) {
			var visited atomic.Int64
			_, err := RunFrontier(pc.p, start, pids, limits, opts, func(_ int, n *Node, cfg *model.Config) error {
				visited.Add(1)
				if want := string(cfg.AppendEncoding(nil)); n.key != want {
					t.Errorf("%s: depth %d pid %d: key\n%q\nconfiguration encodes\n%q", name, n.Depth, n.Pid, n.key, want)
				}
				return nil
			}, nil)
			return int(visited.Load()), err
		}
		engine := func(store string, workers int, provenance bool) EngineOptions {
			opts := EngineOptions{StringKeys: true, Store: store, Workers: workers, Provenance: provenance}
			if store == StoreSpill {
				opts.MemBudget = 1 << 12 // tiny: force real spilling
			}
			return opts
		}
		want := 0
		for _, store := range []string{StoreMem, StoreSpill} {
			for _, workers := range []int{1, 2, 4} {
				for _, provenance := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/w%d/provenance=%t", pc.p.Name(), store, workers, provenance)
					got, err := walk(name, engine(store, workers, provenance))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if want == 0 {
						want = got
					}
					if got != want || got < 2 {
						t.Errorf("%s: visited %d configurations, the first cell %d", name, got, want)
					}
					if provenance {
						continue // provenance and checkpointing exclude each other
					}

					kill := engine(store, workers, false)
					kill.Checkpoint, kill.CheckpointEvery = t.TempDir(), 3
					ctx, cancel := context.WithCancel(context.Background())
					kill.Ctx = ctx
					kill.Progress = func(pr Progress) {
						if pr.Depth >= 2 {
							cancel()
						}
					}
					before, err := walk(name+"/killed", kill)
					cancel()
					if err != nil && !errors.Is(err, context.Canceled) {
						t.Fatalf("%s: run to kill: %v", name, err)
					}
					otherStore := StoreSpill
					if store == StoreSpill {
						otherStore = StoreMem
					}
					resume := engine(otherStore, workers%4+1, false) // 1→2, 2→3, 4→1
					resume.Checkpoint, resume.CheckpointEvery = kill.Checkpoint, 3
					after, err := walk(name+"/resumed", resume)
					if err != nil {
						t.Fatalf("%s: resume: %v", name, err)
					}
					if before < want {
						replayed += after
					}
				}
			}
		}
	}
	if replayed == 0 {
		t.Error("no kill landed mid-run: checkpoint replay went unchecked")
	}
}

// TestKthEntryMatchesSort: the budget cut's entry, found by sorting
// fingerprints and comparing keys only among the entries tied at the k-th
// one, is the k-th of a full (fingerprint, key) sort, for every k — with
// most keys forced onto a few shared fingerprints, fingerprint 0 among
// them, and the rest on fingerprints of their own. Under fingerprint keys
// the entries have no keys and distinct fingerprints. Past radixMin, where
// every cut pays four histograms, k strides through the range instead.
func TestKthEntryMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 2, 7, 300, 1500, radixMin + 500} {
		ks := func(m int) iter.Seq[int] {
			return func(yield func(int) bool) {
				stride := 1
				if m > radixMin {
					stride = 97
				}
				for k := 0; k < m; k += stride {
					if !yield(k) {
						return
					}
				}
				if m > 0 {
					yield(m - 1)
				}
			}
		}
		var es []entry
		seen := map[uint64]bool{}
		for i := 0; i < n; i++ {
			fp := uint64(rng.Intn(4))
			if rng.Intn(3) == 0 {
				fp = rng.Uint64()
			}
			es = append(es, entry{fp, fmt.Sprintf("key-%d-%d", rng.Intn(1000), i)})
			seen[fp] = true
		}
		all := func(yield func(entry) bool) {
			for _, e := range es {
				if !yield(e) {
					return
				}
			}
		}
		want := slices.Clone(es)
		slices.SortFunc(want, entryCompare)
		for k := range ks(len(want)) {
			if got := kthEntry(true, n, k, all); got != want[k] {
				t.Fatalf("n=%d exact k=%d: got %+v, want %+v", n, k, got, want[k])
			}
		}

		fps := make([]entry, 0, len(seen))
		for fp := range seen {
			fps = append(fps, entry{fp: fp})
		}
		allFPs := func(yield func(entry) bool) {
			for _, e := range fps {
				if !yield(e) {
					return
				}
			}
		}
		want = slices.Clone(fps)
		slices.SortFunc(want, entryCompare)
		for k := range ks(len(want)) {
			if got := kthEntry(false, len(fps), k, allFPs); got != want[k] {
				t.Fatalf("n=%d fingerprint k=%d: got %+v, want %+v", n, k, got, want[k])
			}
		}
	}
}
