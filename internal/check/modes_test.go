package check_test

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/sweep"
)

// --- The mode matrix, generated from check.ModeConflicts ---
//
// The three entry points that accept engine modes — the engine itself,
// sweep.EngineSpec.Validate and harness.EngineFlags — must agree with the
// table: every listed pair is rejected with check.ErrIncompatibleModes
// wherever the entry point can express it, and every combination the
// table does not list validates everywhere and explores to the
// sequential oracle's verdict — also when it is killed at a level barrier
// and resumed from its checkpoint.

// modeEngine switches the modes in set on in engine options.
func modeEngine(set check.Mode, dir string) check.EngineOptions {
	var o check.EngineOptions
	if set&check.ModeAsync != 0 {
		o.Order = check.OrderAsync
	}
	if set&check.ModeReduce != 0 {
		o.Reduction = check.ReduceSym
	}
	if set&check.ModeSpill != 0 {
		o.Store = check.StoreSpill
	}
	o.StringKeys = set&check.ModeStringKeys != 0
	o.Provenance = set&check.ModeProvenance != 0
	if set&check.ModeCheckpoint != 0 {
		o.Checkpoint = dir
	}
	if set&check.ModeDist != 0 {
		// Validation precedes any use of the link, so a link with no
		// implementation behind it is enough to select the mode.
		o.Dist = struct{ check.DistLink }{}
	}
	return o
}

// modeSpec is modeEngine for a sweep spec; ok is false when the spec has
// no axis for one of the modes (provenance and checkpointing are chosen
// by the row and the runner, not by the spec).
func modeSpec(set check.Mode) (spec sweep.EngineSpec, ok bool) {
	if set&(check.ModeProvenance|check.ModeCheckpoint) != 0 {
		return spec, false
	}
	if set&check.ModeAsync != 0 {
		spec.Order = check.OrderAsync
	}
	if set&check.ModeReduce != 0 {
		spec.Reduce = check.ReduceSym
	}
	if set&check.ModeSpill != 0 {
		spec.Store = check.StoreSpill
	}
	if set&check.ModeStringKeys != 0 {
		spec.Keys = "string"
	}
	if set&check.ModeDist != 0 {
		spec.Peers = 2
	}
	return spec, true
}

// modeFlags validates the modes in set as mcheck-polarity command-line
// flags (the engine block plus the distribution block, as mcheck declares
// them). Provenance is what SearchLimits implies, so it selects that path
// instead of Options.
func modeFlags(set check.Mode, dir string) error {
	var args []string
	if set&check.ModeDist != 0 {
		args = append(args, "-distributed", "-peers", "127.0.0.1:1")
	}
	if set&check.ModeAsync != 0 {
		args = append(args, "-order", check.OrderAsync)
	}
	if set&check.ModeReduce != 0 {
		args = append(args, "-reduce", check.ReduceSym)
	}
	if set&check.ModeSpill != 0 {
		args = append(args, "-store", check.StoreSpill)
	}
	if set&check.ModeStringKeys != 0 {
		args = append(args, "-stringkeys")
	}
	if set&check.ModeCheckpoint != 0 {
		args = append(args, "-checkpoint", dir)
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := harness.RegisterEngineFlags(fs, false)
	harness.RegisterDistFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var err error
	if set&check.ModeProvenance != 0 {
		_, err = f.SearchLimits(1000, 0, nil)
	} else {
		_, err = f.Options(nil)
	}
	return err
}

// conflicting reports whether the table lists a pair inside set.
func conflicting(set check.Mode) bool {
	for _, c := range check.ModeConflicts {
		if set&c.A != 0 && set&c.B != 0 {
			return true
		}
	}
	return false
}

func TestModeMatrix(t *testing.T) {
	pair := baseline.NewPairConsensus(2)
	pairCfg := model.MustNewConfig(pair, []int{0, 1})
	explore := func(o check.EngineOptions) error {
		_, err := check.ExploreOpts(pair, pairCfg, []int{0, 1}, 1, check.ExploreOptions{Engine: o})
		return err
	}

	// Unknown names are rejected everywhere, and are not mode conflicts.
	for _, o := range []check.EngineOptions{{Order: "bogus"}, {Reduction: "bogus"}} {
		spec := sweep.EngineSpec{Order: o.Order, Reduce: o.Reduction}
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		f := harness.RegisterEngineFlags(fs, false)
		if err := fs.Parse([]string{"-order", o.Order, "-reduce", o.Reduction}); err != nil {
			t.Fatal(err)
		}
		_, ferr := f.Options(nil)
		for entry, err := range map[string]error{"engine": explore(o), "sweep": spec.Validate(), "harness": ferr} {
			if err == nil || errors.Is(err, check.ErrIncompatibleModes) {
				t.Errorf("%s: order %q reduction %q: err = %v, want an unknown-name error", entry, o.Order, o.Reduction, err)
			}
		}
	}

	// Every row of the table, at every entry point that can express it.
	for _, c := range check.ModeConflicts {
		set := c.A | c.B
		t.Run(fmt.Sprintf("reject/%v+%v", c.A, c.B), func(t *testing.T) {
			dir := t.TempDir()
			if err := explore(modeEngine(set, dir)); !errors.Is(err, check.ErrIncompatibleModes) {
				t.Errorf("engine: err = %v, want ErrIncompatibleModes", err)
			}
			if spec, ok := modeSpec(set); ok {
				if err := spec.Validate(); !errors.Is(err, check.ErrIncompatibleModes) {
					t.Errorf("sweep %+v: err = %v, want ErrIncompatibleModes", spec, err)
				}
			}
			if err := modeFlags(set, dir); !errors.Is(err, check.ErrIncompatibleModes) {
				t.Errorf("harness: err = %v, want ErrIncompatibleModes", err)
			}
		})
	}

	// Every combination the table allows, against the sequential oracle.
	toybit, err := baseline.NewToyBitRace(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	protos := []struct {
		p      model.Protocol
		inputs []int
		k      int
	}{
		{pair, []int{0, 1}, 1},
		{toybit, []int{0, 1, 0}, 1},
		{loopProto{n: 3}, []int{0, 1, 0}, 1},
	}
	// The depth cap keeps toybit's unbounded space exact: a depth-capped
	// BFS visits all configurations within the cap under either order.
	limits := check.ExploreLimits{MaxConfigs: 100000, MaxDepth: 8}
	workerCounts := []int{1, 2, 4}
	if testing.Short() {
		workerCounts = []int{2} // the routed path; resumed by 3 on the other store
	}
	for pi, pc := range protos {
		workerCounts := workerCounts
		if pi == 0 {
			// More workers than cores, and than most levels have nodes, on
			// the smallest instance: a contended claim lock, idle workers.
			workerCounts = append(workerCounts[:len(workerCounts):len(workerCounts)], 8)
		}
		c := model.MustNewConfig(pc.p, pc.inputs)
		pids := make([]int, pc.p.NumProcesses())
		for i := range pids {
			pids[i] = i
		}
		oracle := check.ExploreSequential(pc.p, c, pids, pc.k, limits)
		// A quotient legitimately visits fewer configurations than the
		// oracle; its count must instead be one number per reduction.
		reducedVisited := map[string]int{}
		// The budget axis: levelsync's budget cutoff keeps a set that is a
		// function of the space alone, so what it decides is one set per
		// reduction and keying (async's survivors are timing's choice).
		truncatedDecided := map[string][]int{}
		for _, order := range []string{check.OrderLevelSync, check.OrderAsync} {
			for _, store := range []string{check.StoreMem, check.StoreSpill} {
				for _, reduce := range []string{check.ReduceNone, check.ReduceSym} {
					for _, stringKeys := range []bool{false, true} {
						var set check.Mode
						spec := sweep.EngineSpec{Order: order, Store: store, Reduce: reduce}
						if order == check.OrderAsync {
							set |= check.ModeAsync
						}
						if reduce != check.ReduceNone {
							set |= check.ModeReduce
						}
						if store == check.StoreSpill {
							set |= check.ModeSpill
						}
						if stringKeys {
							set |= check.ModeStringKeys
							spec.Keys = "string"
						}
						if conflicting(set) {
							continue
						}
						if err := spec.Validate(); err != nil {
							t.Errorf("sweep rejects the legal %+v: %v", spec, err)
						}
						// compare holds a legal cell's result to the oracle.
						compare := func(name string, res *check.ExploreResult, err error) {
							if err != nil {
								t.Errorf("%s: %v", name, err)
								return
							}
							if !reflect.DeepEqual(res.DecidedValues, oracle.DecidedValues) {
								t.Errorf("%s: decided %v, oracle %v", name, res.DecidedValues, oracle.DecidedValues)
							}
							if (res.AgreementViolation != nil) != (oracle.AgreementViolation != nil) {
								t.Errorf("%s: violation found = %t, oracle %t", name, res.AgreementViolation != nil, oracle.AgreementViolation != nil)
							}
							if res.Complete != oracle.Complete {
								t.Errorf("%s: complete = %t, oracle %t", name, res.Complete, oracle.Complete)
							}
							want := oracle.Visited
							if reduce != check.ReduceNone {
								if _, seen := reducedVisited[reduce]; !seen {
									reducedVisited[reduce] = res.Visited
								}
								want = reducedVisited[reduce]
								if want > oracle.Visited {
									t.Errorf("%s: quotient visited %d > unreduced %d", name, want, oracle.Visited)
								}
							}
							if res.Visited != want {
								t.Errorf("%s: visited %d, want %d", name, res.Visited, want)
							}
						}
						engine := func(store string, workers int) check.EngineOptions {
							eng := check.EngineOptions{Order: order, Store: store, Reduction: reduce,
								StringKeys: stringKeys, Workers: workers}
							if store == check.StoreSpill {
								eng.MemBudget = 1 << 12 // tiny: force real spilling
							}
							return eng
						}
						for _, workers := range workerCounts {
							name := fmt.Sprintf("%s/%s/%s/%s/keys=%t/w%d", pc.p.Name(), order, store, reduce, stringKeys, workers)
							res, err := check.ExploreOpts(pc.p, c, pids, pc.k, check.ExploreOptions{Limits: limits, Engine: engine(store, workers)})
							compare(name, res, err)

							// The budget axis: the same cell at half the
							// configurations it has, so admissions close in
							// the middle of the space. The oracle and every
							// cell visit exactly the budget and say so.
							if err == nil && res.Visited >= 4 {
								cut := check.ExploreLimits{MaxConfigs: res.Visited / 2, MaxDepth: limits.MaxDepth}
								want := check.ExploreSequential(pc.p, c, pids, pc.k, cut)
								got, err := check.ExploreOpts(pc.p, c, pids, pc.k, check.ExploreOptions{Limits: cut, Engine: engine(store, workers)})
								switch {
								case err != nil:
									t.Errorf("%s/budget: %v", name, err)
								case got.Visited != want.Visited || got.Visited != cut.MaxConfigs || got.Complete || want.Complete:
									t.Errorf("%s/budget: visited %d complete %t, oracle %d %t, want both truncated at %d",
										name, got.Visited, got.Complete, want.Visited, want.Complete, cut.MaxConfigs)
								case order == check.OrderLevelSync:
									group := fmt.Sprintf("%s/keys=%t", reduce, stringKeys)
									if _, seen := truncatedDecided[group]; !seen {
										truncatedDecided[group] = got.DecidedValues
									}
									if !reflect.DeepEqual(got.DecidedValues, truncatedDecided[group]) {
										t.Errorf("%s/budget: decided %v, other %s cells %v", name, got.DecidedValues, group, truncatedDecided[group])
									}
								}
							}

							// The checkpoint axis: the same cell killed at a level
							// barrier and resumed from its snapshot by a different
							// number of workers on the other store.
							if conflicting(set | check.ModeCheckpoint) {
								continue
							}
							// A snapshot at every third barrier: the kill's and few
							// others, or fsyncs would be most of the matrix.
							eng := engine(store, workers)
							eng.Checkpoint, eng.CheckpointEvery = t.TempDir(), 3
							ctx, cancel := context.WithCancel(context.Background())
							eng.Ctx = ctx
							eng.Progress = func(pr check.Progress) {
								if pr.Depth >= 2 {
									cancel()
								}
							}
							_, err = check.ExploreOpts(pc.p, c, pids, pc.k, check.ExploreOptions{Limits: limits, Engine: eng})
							cancel()
							if err != nil && !errors.Is(err, context.Canceled) {
								t.Errorf("%s/checkpoint: run to kill: %v", name, err)
								continue
							}
							otherStore, otherWorkers := check.StoreSpill, workers%4+1 // 1→2, 2→3, 4→1
							if store == check.StoreSpill {
								otherStore = check.StoreMem
							}
							resume := engine(otherStore, otherWorkers)
							resume.Checkpoint, resume.CheckpointEvery = eng.Checkpoint, 3
							res, err = check.ExploreOpts(pc.p, c, pids, pc.k, check.ExploreOptions{Limits: limits, Engine: resume})
							compare(fmt.Sprintf("%s/checkpoint->%s/w%d", name, otherStore, otherWorkers), res, err)
						}
					}
				}
			}
		}
	}
}

// TestReadmeModeMatrix: README's "Which modes combine" matrix is the
// table a reader sees, so it is held to check.ModeConflicts cell by cell:
// ✗ exactly where the row's and the column's modes contain a listed pair.
func TestReadmeModeMatrix(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	modeOf := map[string]check.Mode{
		"`-order async`":                check.ModeAsync,
		"`-reduce sym`":                 check.ModeReduce,
		"`-store spill`":                check.ModeSpill,
		"exact string keys":             check.ModeStringKeys,
		"provenance":                    check.ModeProvenance,
		"provenance (witness searches)": check.ModeProvenance,
		"`-checkpoint`":                 check.ModeCheckpoint,
		"distributed":                   check.ModeDist,
	}
	var cols []check.Mode
	rows := 0
	for _, line := range strings.Split(string(readme), "\n") {
		if !strings.HasPrefix(line, "| ") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if cols == nil {
			if cells[0] != "" || cells[1] != "`-order async`" {
				continue // some other table
			}
			for _, h := range cells[1:] {
				cols = append(cols, modeOf[h])
			}
			continue
		}
		row, ok := modeOf[strings.Trim(cells[0], "*")]
		if !ok || len(cells) != len(cols)+1 {
			continue
		}
		rows++
		for i, cell := range cells[1:] {
			if cell == "" {
				continue // the diagonal
			}
			if got, want := strings.HasPrefix(cell, "✗"), conflicting(row|cols[i]); got != want {
				t.Errorf("README matrix, row %s column %d: %q, but ModeConflicts says conflict = %t", cells[0], i+1, cell, want)
			}
		}
	}
	if rows != len(cols) || rows != 7 {
		t.Fatalf("found %d matrix rows under %d columns, want 7 of each", rows, len(cols))
	}
}
