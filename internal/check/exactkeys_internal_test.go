package check

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/model"
)

// TestExactKeysAreRefTuples pins the invariant every store rests on in
// string-key mode: a node's ref tuple is its configuration's exact
// identity, so no configuration is visited twice and every cell visits the
// configurations the first one does — although no key is ever encoded, and
// nodes come back from spill segments as tuples and from checkpoints as
// replayed paths. It walks the exact cells of TestModeMatrix (both stores,
// 1, 2 and 4 workers; the spill budget is small enough that frontiers
// reload from disk), with and without provenance, and each cell again
// killed at a barrier and resumed from its checkpoint — whose visited keys
// are encodings, interned again by the resuming run — by other workers on
// the other store.
func TestExactKeysAreRefTuples(t *testing.T) {
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
		// walk runs one engine cell and returns the encodings it visited in
		// this process, failing on one visited twice.
		walk := func(name string, opts EngineOptions) (map[string]bool, RunStats, error) {
			var mu sync.Mutex
			seen := map[string]bool{}
			stats, err := RunFrontier(pc.p, start, pids, limits, opts, func(_ int, n *Node, v *View) error {
				cfg := v.Config()
				enc := string(cfg.AppendEncoding(nil))
				mu.Lock()
				defer mu.Unlock()
				if seen[enc] {
					t.Errorf("%s: depth %d pid %d: configuration visited twice\n%q", name, n.Depth, n.Pid, enc)
				}
				seen[enc] = true
				return nil
			}, nil)
			return seen, stats, err
		}
		engine := func(store string, workers int, provenance bool) EngineOptions {
			opts := EngineOptions{StringKeys: true, Store: store, Workers: workers, Provenance: provenance}
			if store == StoreSpill {
				opts.MemBudget = 1 << 12 // tiny: force real spilling
			}
			return opts
		}
		var want map[string]bool
		for _, store := range []string{StoreMem, StoreSpill} {
			for _, workers := range []int{1, 2, 4} {
				for _, provenance := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/w%d/provenance=%t", pc.p.Name(), store, workers, provenance)
					got, _, err := walk(name, engine(store, workers, provenance))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if want == nil {
						want = got
					}
					if !maps.Equal(got, want) || len(got) < 2 {
						t.Errorf("%s: visited %d configurations, the first cell %d", name, len(got), len(want))
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
					before, _, err := walk(name+"/killed", kill)
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
					after, stats, err := walk(name+"/resumed", resume)
					if err != nil {
						t.Fatalf("%s: resume: %v", name, err)
					}
					if stats.Processed != len(want) {
						t.Errorf("%s: resumed run visited %d configurations in all, the first cell %d", name, stats.Processed, len(want))
					}
					for enc := range after {
						if !want[enc] {
							t.Errorf("%s: resumed run visited a configuration the first cell did not\n%q", name, enc)
						}
					}
					if len(before) < len(want) {
						replayed += len(after)
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
// one, is the k-th of a full sort by fingerprint and then encoding, for
// every k — with most keys forced onto a few shared fingerprints,
// fingerprint 0 among them, and the rest on fingerprints of their own; the
// keys are ref tuples, ordered by what the dictionary holds for their
// refs. Under fingerprint keys the entries have no keys and distinct
// fingerprints. Past radixMin, where every cut pays four histograms, k
// strides through the range instead.
func TestKthEntryMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pool := newKeyPool()
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
		keys := map[string]bool{}
		for len(es) < n {
			fp := uint64(rng.Intn(4))
			if rng.Intn(3) == 0 {
				fp = rng.Uint64()
			}
			// Keys are distinct, as a visited set's are.
			k := pool.key(len(es)/125, [3]int{rng.Intn(5), rng.Intn(5), rng.Intn(5)})
			if keys[k] {
				continue
			}
			keys[k] = true
			es = append(es, entry{fp, k})
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
		slices.SortFunc(want, pool.byEncoding)
		for k := range ks(len(want)) {
			if got := kthEntry(pool.d, true, n, k, all); got != want[k] {
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
		slices.SortFunc(want, func(a, b entry) int { return entryCompare(nil, a, b) })
		for k := range ks(len(want)) {
			if got := kthEntry(nil, false, len(fps), k, allFPs); got != want[k] {
				t.Fatalf("n=%d fingerprint k=%d: got %+v, want %+v", n, k, got, want[k])
			}
		}
	}
}

// TestOrderIgnoresRefNumbering: refs are numbered in the order the run
// interns, so no order may rest on them. The same exact-key searches run
// twice — on a fresh dictionary, and on one seeded beforehand with every
// value and state the instance reaches in reverse order, so that refs are
// numbered otherwise — with every slot hash forced equal, so that every
// order among entries is decided on a fingerprint tie, by encodings. Each
// cell must visit the same configurations and, under provenance, reach
// each by the same schedule: a provenance search cut by its budget, on the
// resident store and on the spill store at 8KB, whose sorted runs must
// also hold their entries in the same order; and a search killed at a
// barrier and resumed from its checkpoint at another worker count.
func TestOrderIgnoresRefNumbering(t *testing.T) {
	p := core.MustNew(core.Params{N: 3, K: 2, M: 3})
	start := model.MustNewConfig(p, []int{0, 1, 2})
	pids := []int{0, 1, 2}
	model.SetDegenerateSlotHashes(true)
	defer model.SetDegenerateSlotHashes(false)

	// The values and states the instance reaches, in the order met.
	var values []model.Value
	var states []model.State
	seenV, seenS := map[string]bool{}, map[string]bool{}
	_, err := RunFrontier(p, start, pids, ExploreLimits{MaxDepth: 12}, EngineOptions{Workers: 1, StringKeys: true},
		func(_ int, _ *Node, v *View) error {
			cfg := v.Config()
			for _, v := range cfg.Objects {
				if k := v.Key(); !seenV[k] {
					seenV[k] = true
					values = append(values, v)
				}
			}
			for _, s := range cfg.States {
				if k := s.Key(); !seenS[k] {
					seenS[k] = true
					states = append(states, s)
				}
			}
			return nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// outcome is what a cell must reproduce: the schedule of every visited
	// configuration (its encoding), and each sorted run's entries by
	// encoding, as the run was first seen.
	type outcome struct {
		paths map[string]string
		runs  map[string][]string
		stats RunStats
	}
	run := func(reversed bool, opts EngineOptions, limits ExploreLimits) outcome {
		t.Helper()
		var dict *model.Dict
		runDictHook = func(d *model.Dict) {
			dict = d
			if reversed {
				for _, v := range slices.Backward(values) {
					d.InternValue(v)
				}
				for _, s := range slices.Backward(states) {
					d.InternState(s)
				}
			}
		}
		defer func() { runDictHook = nil }()
		out := outcome{paths: map[string]string{}, runs: map[string][]string{}}
		var mu sync.Mutex
		if opts.SpillDir != "" {
			// At every barrier, read each sorted run not yet seen.
			opts.Progress = func(Progress) {
				names, _ := filepath.Glob(filepath.Join(opts.SpillDir, "run-*"))
				for _, name := range names {
					if _, ok := out.runs[filepath.Base(name)]; ok || strings.HasSuffix(name, ".tmp") {
						continue
					}
					r, err := openEntries(name, artifactRun)
					if err != nil {
						t.Fatal(err)
					}
					var encs []string
					refs := make([]uint32, len(start.Objects)+len(start.States))
					err = r.each(func(fp uint64, key string) error {
						encs = append(encs, fmt.Sprintf("%x %x", fp, dict.AppendEncoding(nil, keyTuple(refs, key))))
						return nil
					})
					r.close()
					if err != nil {
						t.Fatal(err)
					}
					out.runs[filepath.Base(name)] = encs
				}
			}
		}
		out.stats, err = RunFrontier(p, start, pids, limits, opts, func(_ int, n *Node, v *View) error {
			cfg := v.Config()
			mu.Lock()
			defer mu.Unlock()
			out.paths[string(cfg.AppendEncoding(nil))] = fmt.Sprint(n.Path())
			return nil
		}, nil)
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
		return out
	}

	budget := ExploreLimits{MaxConfigs: 1500}
	for _, tc := range []struct {
		name string
		opts func() EngineOptions
	}{
		{"resident", func() EngineOptions { return EngineOptions{Workers: 2, StringKeys: true, Provenance: true} }},
		{"spill8k", func() EngineOptions {
			return EngineOptions{Workers: 2, StringKeys: true, Provenance: true, Store: StoreSpill, MemBudget: 8 << 10, SpillDir: t.TempDir()}
		}},
	} {
		fresh, seeded := run(false, tc.opts(), budget), run(true, tc.opts(), budget)
		if fresh.stats.Complete || fresh.stats.Processed != budget.MaxConfigs {
			t.Fatalf("%s: visited %d (complete %t); the cell wants a run its budget cuts", tc.name, fresh.stats.Processed, fresh.stats.Complete)
		}
		if seeded.stats.Processed != fresh.stats.Processed || !maps.Equal(seeded.paths, fresh.paths) {
			t.Errorf("%s: the seeded dictionary visited %d configurations (%d schedules), the fresh one %d (%d); schedules equal: %t",
				tc.name, seeded.stats.Processed, len(seeded.paths), fresh.stats.Processed, len(fresh.paths), maps.Equal(seeded.paths, fresh.paths))
		}
		if tc.opts().Store == StoreSpill && (len(fresh.runs) < 2 || !maps.EqualFunc(seeded.runs, fresh.runs, slices.Equal)) {
			t.Errorf("%s: sorted runs %d and %d, equal entry orders: %t", tc.name, len(fresh.runs), len(seeded.runs), maps.EqualFunc(seeded.runs, fresh.runs, slices.Equal))
		}
	}

	// Killed at a barrier on two workers, resumed on one.
	resumed := func(reversed bool) outcome {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		kill := EngineOptions{Workers: 2, StringKeys: true, Checkpoint: dir, Ctx: ctx,
			Progress: func(pr Progress) {
				if pr.Depth >= 5 {
					cancel()
				}
			}}
		if killed := run(reversed, kill, budget); killed.stats.Processed >= budget.MaxConfigs {
			t.Fatal("the kill landed after the last level")
		}
		return run(reversed, EngineOptions{Workers: 1, StringKeys: true, Checkpoint: dir}, budget)
	}
	// Without provenance a schedule is whichever claim came first, so only
	// the configurations are compared.
	fresh, seeded := resumed(false), resumed(true)
	sameConfigs := slices.Equal(slices.Sorted(maps.Keys(seeded.paths)), slices.Sorted(maps.Keys(fresh.paths)))
	if fresh.stats.Processed != budget.MaxConfigs || seeded.stats.Processed != fresh.stats.Processed || !sameConfigs {
		t.Errorf("resumed: the seeded dictionary visited %d in all (%d after the resume), the fresh one %d (%d)",
			seeded.stats.Processed, len(seeded.paths), fresh.stats.Processed, len(fresh.paths))
	}
}
