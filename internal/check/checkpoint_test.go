package check_test

// Checkpoint/resume tests: a run killed after any committed barrier
// snapshot must resume to the identical final verdict, across stores,
// keying modes and reductions; corrupt checkpoints must quarantine and
// restart fresh, never crash or change verdicts.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/model"
)

// verdict is the timing-free projection of an ExploreResult that crash
// recovery must reproduce exactly.
type verdict struct {
	visited, maxTogether int
	complete             bool
	decided              []int
	violation            bool
	violationDecided     []int
}

func verdictOf(p model.Protocol, r *check.ExploreResult) verdict {
	v := verdict{
		visited:     r.Visited,
		maxTogether: r.MaxDecidedTogether,
		complete:    r.Complete,
		decided:     r.DecidedValues,
		violation:   r.AgreementViolation != nil,
	}
	if r.AgreementViolation != nil {
		v.violationDecided = r.AgreementViolation.DecidedValues(p)
	}
	return v
}

// ckptCase is one cell of the resume determinism matrix.
type ckptCase struct {
	name       string
	p          model.Protocol
	inputs     []int
	pids       []int
	k          int
	store      string
	stringKeys bool
	reduce     string
}

func ckptCases() []ckptCase {
	sym := symRace{n: 4}
	symIn := []int{0, 0, 1, 1}
	symPids := []int{0, 1, 2, 3}
	pairV := baseline.NewPairConsensus(2).WithProcesses(3)
	pairIn := []int{0, 1, 1}
	pairPids := []int{0, 1, 2}
	return []ckptCase{
		{"mem/fp", sym, symIn, symPids, 2, check.StoreMem, false, ""},
		{"mem/stringkeys", sym, symIn, symPids, 2, check.StoreMem, true, ""},
		// The deprecated synonym of sym checkpoints and resumes as sym does.
		{"mem/sym+sleep", sym, symIn, symPids, 2, check.StoreMem, false, check.ReduceSymSleep},
		{"spill/fp", sym, symIn, symPids, 2, check.StoreSpill, false, ""},
		{"spill/stringkeys", sym, symIn, symPids, 2, check.StoreSpill, true, ""},
		{"spill/sym", sym, symIn, symPids, 2, check.StoreSpill, false, check.ReduceSym},
		// A violating instance: the witness must survive the crash too.
		{"mem/violation", pairV, pairIn, pairPids, 1, check.StoreMem, false, ""},
		{"spill/violation", pairV, pairIn, pairPids, 1, check.StoreSpill, false, ""},
	}
}

func (tc ckptCase) options(dir string, workers int) check.ExploreOptions {
	eng := check.EngineOptions{
		Workers:    workers,
		StringKeys: tc.stringKeys,
		Store:      tc.store,
		Reduction:  tc.reduce,
		Checkpoint: dir,
	}
	if tc.store == check.StoreSpill {
		eng.MemBudget = 1 << 12 // tiny: force real spilling under checkpointing
	}
	return check.ExploreOptions{Engine: eng}
}

// TestCheckpointResumeIdenticalVerdict interrupts a checkpointing run at
// every barrier depth in turn (context cancellation fired from the
// Progress hook — the same "process gone mid-level" state a kill leaves,
// with the last committed snapshot at the interrupted barrier) and
// checks the resumed run reproduces the clean verdict exactly.
func TestCheckpointResumeIdenticalVerdict(t *testing.T) {
	for _, tc := range ckptCases() {
		t.Run(tc.name, func(t *testing.T) {
			c := model.MustNewConfig(tc.p, tc.inputs)
			clean := exploreT(t, tc.p, c, tc.pids, tc.k, tc.options("", 2))
			want := verdictOf(tc.p, clean)

			for interrupt := 0; interrupt < 3; interrupt++ {
				dir := t.TempDir()
				opts := tc.options(dir, 2)
				ctx, cancel := context.WithCancel(context.Background())
				opts.Engine.Ctx = ctx
				opts.Engine.Progress = func(pr check.Progress) {
					if pr.Depth >= interrupt {
						cancel()
					}
				}
				_, err := check.ExploreOpts(tc.p, c, tc.pids, tc.k, opts)
				cancel()
				if err == nil {
					// The run finished before the interrupt depth; the
					// resume below then exercises the Finished manifest.
					t.Logf("interrupt=%d: run completed before interrupt", interrupt)
				}

				got := exploreT(t, tc.p, c, tc.pids, tc.k, tc.options(dir, 4))
				if gv := verdictOf(tc.p, got); !reflect.DeepEqual(gv, want) {
					t.Errorf("interrupt=%d: resumed verdict = %+v, want %+v", interrupt, gv, want)
				}
			}
		})
	}
}

// levelRec is the schedule-visible part of one Progress report.
type levelRec struct{ depth, frontier, processed int }

// recordLevels returns a Progress hook appending every level to *into
// and, with killAt >= 0, cancelling when level killAt completes.
// Cancellation reaches the engine through a goroutine (context.AfterFunc),
// so the hook yields to let it land before the next level starts; a dying
// run that still gets further — to a later snapshot, even to its verdict —
// leaves a directory every test here must resume correctly all the same.
func recordLevels(into *[]levelRec, killAt int, cancel context.CancelFunc) func(check.Progress) {
	return func(pr check.Progress) {
		*into = append(*into, levelRec{pr.Depth, pr.FrontierSize, pr.Processed})
		if pr.Depth == killAt {
			cancel()
			runtime.Gosched()
		}
	}
}

// TestCheckpointResumeSameLevels: the resumed frontier is the killed
// run's, node for node — so a run killed at a mid level and resumed
// reports, level by level, exactly what the uninterrupted run reports,
// and the same result, whatever worker counts wrote and resumed the
// snapshot and although the resume runs on the other store. The replay
// reorders the frontier records and splits them across the resuming
// run's workers. (The toybit case names the quotient by its deprecated
// synonym, sym+sleep.)
//
// Row 3 at 200k states is the scale cell — snapshots of several I/O
// blocks, tables of 2^17 slots and more, replay chunks of tens of
// thousands of records — on two write/resume pairs; the full
// write-workers × resume-workers × store-direction cross runs on
// instances small enough for 24 runs each.
func TestCheckpointResumeSameLevels(t *testing.T) {
	row3 := core.MustNew(core.Params{N: 4, K: 1, M: 3})
	toybit, err := baseline.NewToyBitRace(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	// cell is one killed-then-resumed run: the store and worker count
	// that wrote the snapshot, and the worker count that resumed it on the
	// other store.
	type cell struct {
		from                        string
		writeWorkers, resumeWorkers int
	}
	scaleCells := 2 // of the row 3 scale case
	if testing.Short() {
		scaleCells = 1
	}
	var cross []cell
	for _, from := range []string{check.StoreMem, check.StoreSpill} {
		for _, ww := range []int{1, 2, 4} {
			for _, rw := range []int{1, 2, 4} {
				// -short keeps a third of the cross: the cells that resume
				// on the next worker count round.
				if next := map[int]int{1: 2, 2: 4, 4: 1}; !testing.Short() || rw == next[ww] {
					cross = append(cross, cell{from, ww, rw})
				}
			}
		}
	}
	cases := []struct {
		name       string
		p          model.Protocol
		inputs     []int
		limits     check.ExploreLimits
		stringKeys bool
		reduce     string
		killAt     int // the last level the killed run completes
		cells      []cell
	}{
		{"row3/fp/200k", row3, []int{0, 1, 2, 0}, check.ExploreLimits{MaxConfigs: 200000}, false, "", 10,
			[]cell{{check.StoreMem, 2, 4}, {check.StoreSpill, 1, 2}}[:scaleCells]},
		{"row3/fp", row3, []int{0, 1, 2, 0}, check.ExploreLimits{MaxConfigs: 6000}, false, "", 5, cross},
		{"row3/stringkeys", row3, []int{0, 1, 2, 0}, check.ExploreLimits{MaxConfigs: 6000}, true, "", 5, cross},
		{"toybit/sym+sleep", toybit, []int{0, 1, 0, 1, 0}, check.ExploreLimits{MaxConfigs: 6000}, false, check.ReduceSymSleep, 8, cross},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := model.MustNewConfig(tc.p, tc.inputs)
			pids := make([]int, tc.p.NumProcesses())
			for i := range pids {
				pids[i] = i
			}
			options := func(store, dir string, workers int) check.ExploreOptions {
				// One snapshot, at the kill barrier (and the final one): the
				// fsyncs of a snapshot per barrier would be most of the test.
				eng := check.EngineOptions{Workers: workers, StringKeys: tc.stringKeys, Reduction: tc.reduce, Store: store,
					Checkpoint: dir, CheckpointEvery: tc.killAt + 1}
				if store == check.StoreSpill {
					eng.MemBudget = 1 << 16 // small: the spill side really spills
				}
				return check.ExploreOptions{Limits: tc.limits, Engine: eng}
			}

			var wantLevels []levelRec
			opts := options(check.StoreMem, "", 2)
			opts.Engine.Progress = recordLevels(&wantLevels, -1, nil)
			want := verdictOf(tc.p, exploreT(t, tc.p, c, pids, 1, opts))
			if len(wantLevels) < tc.killAt+3 {
				t.Fatalf("the uninterrupted run has %d levels; killing after level %d is not mid-run", len(wantLevels), tc.killAt)
			}

			// One killed run per (store, write-workers); every resume of it
			// works on its own copy of the directory.
			type killedRun struct {
				dir    string
				levels []levelRec
			}
			killed := map[cell]*killedRun{}
			for _, cl := range tc.cells {
				to := check.StoreMem
				if cl.from == check.StoreMem {
					to = check.StoreSpill
				}
				tag := fmt.Sprintf("%s w%d -> %s w%d", cl.from, cl.writeWorkers, to, cl.resumeWorkers)
				k := killed[cell{cl.from, cl.writeWorkers, 0}]
				if k == nil {
					k = &killedRun{dir: t.TempDir()}
					killed[cell{cl.from, cl.writeWorkers, 0}] = k
					ctx, cancel := context.WithCancel(context.Background())
					opts := options(cl.from, k.dir, cl.writeWorkers)
					opts.Engine.Ctx = ctx
					opts.Engine.Progress = recordLevels(&k.levels, tc.killAt, cancel)
					_, err := check.ExploreOpts(tc.p, c, pids, 1, opts)
					cancel()
					if err != nil && !errors.Is(err, context.Canceled) {
						t.Fatalf("%s: run to kill: %v", tag, err)
					}
				}
				dir := t.TempDir()
				if err := os.CopyFS(dir, os.DirFS(k.dir)); err != nil {
					t.Fatal(err)
				}
				var resumed []levelRec
				opts := options(to, dir, cl.resumeWorkers)
				opts.Engine.Progress = recordLevels(&resumed, -1, nil)
				got := exploreT(t, tc.p, c, pids, 1, opts)
				// The resume starts at the level after the last snapshot the
				// dying run committed: the kill level's, unless it outran
				// the cancellation.
				from := len(wantLevels)
				if len(resumed) > 0 {
					from = resumed[0].depth
				}
				if from != tc.killAt+1 {
					t.Logf("%s: the killed run got past level %d; resumed from level %d", tag, tc.killAt, from)
				}
				levels := append(append([]levelRec(nil), k.levels[:min(from, len(k.levels))]...), resumed...)
				if gv := verdictOf(tc.p, got); !reflect.DeepEqual(gv, want) {
					t.Errorf("%s: resumed result = %+v, want %+v", tag, gv, want)
				}
				if !reflect.DeepEqual(levels, wantLevels) {
					t.Errorf("%s: levels (depth, frontier, processed)\n got %v\nwant %v", tag, levels, wantLevels)
				}
			}
		})
	}
}

// TestCheckpointSpillResumeHonoursBudget: resuming under the spill store
// seeds the snapshot through the byte budget — full deltas flush to sorted
// runs as they do during a run — instead of materializing every visited
// fingerprint resident. The instance is deep and narrow (41 levels of a
// few thousand states), so by the kill the visited set is an order of
// magnitude larger than anything the uninterrupted run ever held.
func TestCheckpointSpillResumeHonoursBudget(t *testing.T) {
	p, err := baseline.NewToyBitRace(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := model.MustNewConfig(p, []int{0, 1, 0, 1, 0})
	pids := []int{0, 1, 2, 3, 4}
	const budget = 1 << 16
	const killAt = 30
	options := func(dir string) check.ExploreOptions {
		return check.ExploreOptions{Engine: check.EngineOptions{Workers: 2, Reduction: check.ReduceSym,
			Store: check.StoreSpill, MemBudget: budget, Checkpoint: dir, CheckpointEvery: killAt + 1}}
	}
	clean := exploreT(t, p, c, pids, 1, options(""))

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	opts := options(dir)
	opts.Engine.Ctx = ctx
	seeded := 0
	opts.Engine.Progress = func(pr check.Progress) {
		if pr.Depth == killAt {
			seeded = pr.Admitted
			cancel()
			runtime.Gosched() // see recordLevels
		}
	}
	_, err = check.ExploreOpts(p, c, pids, 1, opts)
	cancel()
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("run to kill: %v", err)
	}

	got := exploreT(t, p, c, pids, 1, options(dir))
	if !reflect.DeepEqual(verdictOf(p, got), verdictOf(p, clean)) {
		t.Errorf("resumed verdict = %+v, want %+v", verdictOf(p, got), verdictOf(p, clean))
	}
	// The seeded deltas hold at most the budget between them, on top of
	// what a level of the run itself needs.
	if limit := clean.Store.PeakResidentBytes + budget; got.Store.PeakResidentBytes > limit {
		t.Errorf("resumed run peaked at %d resident bytes; the uninterrupted run at %d under a %d-byte budget",
			got.Store.PeakResidentBytes, clean.Store.PeakResidentBytes, budget)
	}
	if all := int64(seeded) * 8; got.Store.PeakResidentBytes >= all {
		t.Errorf("resumed run peaked at %d resident bytes: no less than the %d seeded fingerprints take (%d bytes)",
			got.Store.PeakResidentBytes, seeded, all)
	}
}

// TestCheckpointSpillResumeKeepsDepth: the spill store hands a resumed
// run's nodes back at their own BFS depth. Its records carry none (a level
// shares one), and it used to number levels from its own first barrier, so
// a run resumed at level d told every visitor — and every successor's
// Depth — that it was at level 0 again. A checkpointing run maintains
// root-to-node paths, whose length is the depth.
func TestCheckpointSpillResumeKeepsDepth(t *testing.T) {
	p := core.MustNew(core.Params{N: 3, K: 1, M: 2})
	c := model.MustNewConfig(p, []int{0, 1, 0})
	pids := []int{0, 1, 2}
	limits := check.ExploreLimits{MaxConfigs: 5000}
	var wrong atomic.Int64
	visit := func(_ int, n *check.Node, _ *check.View) error {
		if n.Depth != len(n.Path()) {
			wrong.Add(1)
		}
		return nil
	}
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := check.RunFrontier(p, c, pids, limits, check.EngineOptions{Workers: 2, Checkpoint: dir, Ctx: ctx,
		Progress: func(pr check.Progress) {
			if pr.Depth == 3 {
				cancel()
				runtime.Gosched() // see recordLevels
			}
		}}, visit, nil)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("run to kill: %v", err)
	}
	stats, err := check.RunFrontier(p, c, pids, limits, check.EngineOptions{Workers: 2, Checkpoint: dir,
		Store: check.StoreSpill, MemBudget: 1 << 12}, visit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Processed != limits.MaxConfigs {
		t.Errorf("resumed run visited %d, want %d", stats.Processed, limits.MaxConfigs)
	}
	if n := wrong.Load(); n != 0 {
		t.Errorf("%d nodes visited at a Depth that is not their path's length", n)
	}
}

// TestCheckpointFinishedShortCircuit: resuming a run whose checkpoint
// recorded the final barrier returns the full verdict — including the
// replayed violation witness — without re-exploring.
func TestCheckpointFinishedShortCircuit(t *testing.T) {
	p := baseline.NewPairConsensus(2).WithProcesses(3)
	c := model.MustNewConfig(p, []int{0, 1, 1})
	pids := []int{0, 1, 2}
	dir := t.TempDir()
	opts := check.ExploreOptions{Engine: check.EngineOptions{Workers: 2, Checkpoint: dir}}

	first := exploreT(t, p, c, pids, 1, opts)
	second := exploreT(t, p, c, pids, 1, opts)
	if !reflect.DeepEqual(verdictOf(p, second), verdictOf(p, first)) {
		t.Errorf("short-circuited resume verdict = %+v, want %+v", verdictOf(p, second), verdictOf(p, first))
	}
	if first.AgreementViolation == nil || second.AgreementViolation == nil {
		t.Fatal("expected a violation witness from both runs")
	}
	if second.AgreementViolation.Key() != first.AgreementViolation.Key() {
		t.Errorf("restored witness = %s, want %s", second.AgreementViolation.Key(), first.AgreementViolation.Key())
	}
}

// TestCheckpointProfileMismatch: a checkpoint taken under different run
// parameters is an explicit error, not a silent fresh start.
func TestCheckpointProfileMismatch(t *testing.T) {
	p := symRace{n: 3}
	c := model.MustNewConfig(p, []int{0, 1, 1})
	pids := []int{0, 1, 2}
	dir := t.TempDir()
	opts := check.ExploreOptions{Engine: check.EngineOptions{Workers: 1, Checkpoint: dir}}
	exploreT(t, p, c, pids, 2, opts)

	opts.Limits = check.ExploreLimits{MaxDepth: 1}
	if _, err := check.ExploreOpts(p, c, pids, 2, opts); err == nil {
		t.Fatal("expected a profile-mismatch error for changed limits")
	}
}

// TestCheckpointEarlierLayoutRestartsFresh: a manifest of an earlier
// layout version is not resumed: version 1 (a whole visited snapshot per
// generation, a reserved word per frontier record), version 2 (an aux
// whose decided values had no witnesses) or version 3 (a sym run's
// fingerprints sorted class hashes, so its frontier would replay to
// another sum). It is quarantined like a corrupt one and the run starts
// over to the clean verdict, however the earlier build wrote its profile:
// with "canonical":false from before the Canonical hook was removed, or
// with "sleep=true" in a sym+sleep run's reduction from before sleep sets
// were deleted.
func TestCheckpointEarlierLayoutRestartsFresh(t *testing.T) {
	for _, tc := range []struct {
		name, reduce, old, earlier string
		version                    int
	}{
		{"canonical", "", `"max_configs":`, `"canonical":false,"max_configs":`, 1},
		{"sym+sleep", check.ReduceSym, `sym=true`, `sym=true,sleep=true`, 1},
		{"layout-2", "", "", "", 2},
		{"layout-3", check.ReduceSym, "", "", 3},
	} {
		t.Run(tc.name, func(t *testing.T) { restartEarlierLayout(t, tc.reduce, tc.old, tc.earlier, tc.version) })
	}
}

// restartEarlierLayout kills a run under reduction reduce, rewrites its
// manifest as the given version, replacing old with earlier (re-summing
// it), and runs again on the directory.
func restartEarlierLayout(t *testing.T, reduce, old, earlier string, version int) {
	p := symRace{n: 4}
	c := model.MustNewConfig(p, []int{0, 0, 1, 1})
	pids := []int{0, 1, 2, 3}
	cleanLevels := 0
	clean := exploreT(t, p, c, pids, 2, check.ExploreOptions{Engine: check.EngineOptions{Workers: 2, Reduction: reduce,
		Progress: func(check.Progress) { cleanLevels++ }}})

	dir := t.TempDir()
	opts := check.ExploreOptions{Engine: check.EngineOptions{Workers: 2, Reduction: reduce, Checkpoint: dir}}
	ctx, cancel := context.WithCancel(context.Background())
	opts.Engine.Ctx = ctx
	opts.Engine.Progress = func(pr check.Progress) {
		if pr.Depth >= 1 {
			cancel()
		}
	}
	if _, err := check.ExploreOpts(p, c, pids, 2, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}

	// Rewrite the manifest the way the earlier build serialized it, and the
	// checksum (over the JSON with sum 0).
	sub := filepath.Join(dir, "explore")
	mp := filepath.Join(sub, "MANIFEST.json")
	raw, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Replace(raw, []byte(old), []byte(earlier), 1)
	was := fmt.Sprintf(`"version":%d`, version)
	raw = bytes.Replace(raw, []byte(`"version":4`), []byte(was), 1)
	i := bytes.LastIndex(raw, []byte(`"sum":`))
	if i < 0 || !bytes.Contains(raw, []byte(earlier)) || !bytes.Contains(raw, []byte(was)) {
		t.Fatalf("manifest layout changed: %s", raw)
	}
	zeroed := append(append([]byte(nil), raw[:i]...), `"sum":0}`...)
	raw = append(raw[:i:i], fmt.Sprintf(`"sum":%d}`, crc32.ChecksumIEEE(zeroed))...)
	if err := os.WriteFile(mp, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	levels := 0
	opts.Engine.Ctx = nil
	opts.Engine.Progress = func(check.Progress) { levels++ }
	got := exploreT(t, p, c, pids, 2, opts)
	if !reflect.DeepEqual(verdictOf(p, got), verdictOf(p, clean)) {
		t.Errorf("verdict after the earlier layout = %+v, want %+v", verdictOf(p, got), verdictOf(p, clean))
	}
	if _, err := os.Stat(filepath.Join(sub, "quarantine", "MANIFEST.json")); err != nil {
		t.Errorf("the earlier-layout manifest was not quarantined: %v", err)
	}
	if levels != cleanLevels {
		t.Errorf("the run after the earlier layout ran %d levels, a fresh run %d: it did not start over", levels, cleanLevels)
	}
}

// TestCheckpointCorruptionRestartsFresh: corrupting any checkpoint file
// must quarantine the generation and restart from scratch with the same
// verdict — never crash, never a wrong verdict. The last-payload-byte
// cases are damage only the CRC trailer reveals, after every entry has
// decoded cleanly, on a run killed mid-way (a finished run's resume never
// consults its visited set): nothing decoded may have reached the store by
// then, or the restart would skip the phantom entries and count short. The
// length case is a damaged entry length met well before the trailer: it
// must not be trusted with an allocation.
func TestCheckpointCorruptionRestartsFresh(t *testing.T) {
	p := symRace{n: 4}
	c := model.MustNewConfig(p, []int{0, 0, 1, 1})
	pids := []int{0, 1, 2, 3}

	// Artifact framing: an 8-byte header, the payload, an 8-byte trailer
	// (CRC32 + end marker).
	flipMiddle := func(raw []byte) { raw[len(raw)/2] ^= 0x40 }
	flipLastPayloadByte := func(raw []byte) { raw[len(raw)-8-1] ^= 0x40 }
	for _, tc := range []struct {
		name, target string
		killed       bool // corrupt a run killed after level 1, not a finished one
		damage       func(raw []byte)
	}{
		{"MANIFEST.json", "MANIFEST.json", false, flipMiddle},
		{"frontier", "frontier", false, flipMiddle},
		{"visited", "visited", false, flipMiddle},
		{"frontier/last-payload-byte", "frontier", true, flipLastPayloadByte},
		{"visited/last-payload-byte", "visited", true, flipLastPayloadByte},
		{"visited/length", "visited", true, func(raw []byte) {
			// The first entry's key length (after the header and an 8-byte
			// fingerprint) becomes a nine-byte uvarint: 2^63-1.
			for i := 16; i < 24; i++ {
				raw[i] = 0xff
			}
			raw[24] = 0x7f
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := check.ExploreOptions{Engine: check.EngineOptions{Workers: 2, Checkpoint: dir}}
			clean := exploreT(t, p, c, pids, 2, check.ExploreOptions{Engine: check.EngineOptions{Workers: 2}})
			if tc.killed {
				ctx, cancel := context.WithCancel(context.Background())
				killOpts := opts
				killOpts.Engine.Ctx = ctx
				killOpts.Engine.Progress = func(pr check.Progress) {
					if pr.Depth == 1 {
						cancel()
						runtime.Gosched() // see recordLevels
					}
				}
				_, err := check.ExploreOpts(p, c, pids, 2, killOpts)
				cancel()
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("run to kill: %v", err)
				}
			} else {
				exploreT(t, p, c, pids, 2, opts)
			}

			// Corrupt the chosen file of the committed generation.
			sub := filepath.Join(dir, "explore")
			ents, err := os.ReadDir(sub)
			if err != nil {
				t.Fatal(err)
			}
			corrupted := false
			for _, ent := range ents {
				name := ent.Name()
				if name == tc.target || (len(name) > len(tc.target) && name[:len(tc.target)+1] == tc.target+"-") {
					path := filepath.Join(sub, name)
					raw, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					tc.damage(raw)
					if err := os.WriteFile(path, raw, 0o644); err != nil {
						t.Fatal(err)
					}
					corrupted = true
				}
			}
			if !corrupted {
				t.Fatalf("no %s file found to corrupt in %s", tc.target, sub)
			}

			got := exploreT(t, p, c, pids, 2, opts)
			if !reflect.DeepEqual(verdictOf(p, got), verdictOf(p, clean)) {
				t.Errorf("verdict after corruption = %+v, want %+v", verdictOf(p, got), verdictOf(p, clean))
			}
			if _, err := os.Stat(filepath.Join(sub, "quarantine")); err != nil {
				t.Errorf("expected a quarantine directory: %v", err)
			}
		})
	}
}

// TestCheckpointEveryThinsSnapshots: -checkpointevery N writes fewer
// generations but resume still reproduces the verdict.
func TestCheckpointEveryThinsSnapshots(t *testing.T) {
	p := symRace{n: 4}
	c := model.MustNewConfig(p, []int{0, 0, 1, 1})
	pids := []int{0, 1, 2, 3}
	dir := t.TempDir()
	opts := check.ExploreOptions{Engine: check.EngineOptions{
		Workers: 2, Checkpoint: dir, CheckpointEvery: 3,
	}}
	clean := exploreT(t, p, c, pids, 2, opts)
	got := exploreT(t, p, c, pids, 2, opts)
	if !reflect.DeepEqual(verdictOf(p, got), verdictOf(p, clean)) {
		t.Errorf("resumed verdict = %+v, want %+v", verdictOf(p, got), verdictOf(p, clean))
	}
}

// TestCheckpointRejectsProvenance: checkpointing does not compose with
// provenance (a snapshot has no place for a level's settled provenance
// paths). The 255-process cap is TestPathRunsCapProcesses'.
func TestCheckpointRejectsProvenance(t *testing.T) {
	p := symRace{n: 2}
	c := model.MustNewConfig(p, []int{0, 1})
	_, err := check.ExploreOpts(p, c, []int{0, 1}, 0, check.ExploreOptions{
		Engine: check.EngineOptions{Checkpoint: t.TempDir(), Provenance: true},
	})
	if err == nil {
		t.Fatal("expected Checkpoint+Provenance to be rejected")
	}
}

// TestPathRunsCapProcesses: a root-to-node path stores one pid byte per
// step, so a run that keeps paths — checkpointed or provenance — rejects a
// 256-process protocol before it starts, with an error naming the cap.
func TestPathRunsCapProcesses(t *testing.T) {
	p := symRace{n: 256}
	c := model.MustNewConfig(p, make([]int, 256))
	for _, opts := range []check.EngineOptions{{Checkpoint: t.TempDir()}, {Provenance: true}} {
		_, err := check.RunFrontier(p, c, []int{0, 1}, check.ExploreLimits{MaxConfigs: 10}, opts,
			func(int, *check.Node, *check.View) error { return nil }, nil)
		if err == nil || !strings.Contains(err.Error(), "at most 255 processes") {
			t.Errorf("checkpoint %t, provenance %t: err = %v, want the 255-process cap",
				opts.Checkpoint != "", opts.Provenance, err)
		}
	}
}

// TestCheckpointFrontierChecksum: the manifest's frontier count and
// order-free checksum catch a frontier that replays — every path steps, to
// the right depth — but not to the nodes the run wrote: one record
// overwritten by a copy of another (a node twice, one lost), or another
// instance's frontier at the same depth: the inputs handed to other
// processes, an isomorphic instance with a frontier of the same size,
// whose paths reach other configurations from these inputs. (Relabelled
// values would not do: they keep every path's class, so their paths
// replay to this frontier exactly.) Both artifacts carry
// a valid CRC. Resume must fail with an error naming the checkpoint, and
// commit nothing: the manifest and the generations on disk stay as they
// were.
func TestCheckpointFrontierChecksum(t *testing.T) {
	p := symRace{n: 6}
	pids := []int{0, 1, 2, 3, 4, 5}
	inputs := []int{0, 0, 0, 1, 1, 1}
	permuted := []int{0, 1, 0, 1, 0, 1}
	// killed leaves dir with one generation, at the barrier of depth 2:
	// the run fails visiting its first configuration at depth 3.
	killed := func(dir string, inputs []int) {
		t.Helper()
		c := model.MustNewConfig(p, inputs)
		_, err := check.RunFrontier(p, c, pids, check.ExploreLimits{}, check.EngineOptions{Workers: 2, Checkpoint: dir, CheckpointEvery: 3},
			func(_ int, n *check.Node, _ *check.View) error {
				if n.Depth == 3 {
					return errors.New("killed")
				}
				return nil
			}, nil)
		if err == nil || err.Error() != "killed" {
			t.Fatalf("run to kill: err = %v", err)
		}
	}
	// reseal rewrites an artifact's CRC trailer over its payload.
	reseal := func(raw []byte) {
		payload := raw[8 : len(raw)-8]
		binary.LittleEndian.PutUint32(raw[len(raw)-8:], crc32.ChecksumIEEE(payload))
	}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string)
	}{
		{"duplicated-record", func(t *testing.T, dir string) {
			path := filepath.Join(dir, "frontier-1")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Records are a one-byte length (3) and three path bytes.
			first, second := raw[8:12], raw[12:16]
			if first[0] != 3 || bytes.Equal(first, second) {
				t.Fatalf("frontier records %x, %x: the layout changed", first, second)
			}
			copy(second, first)
			reseal(raw)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"foreign-frontier", func(t *testing.T, dir string) {
			other := t.TempDir()
			killed(other, permuted)
			raw, err := os.ReadFile(filepath.Join(other, "frontier-1"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "frontier-1"), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			killed(dir, inputs)
			tc.damage(t, dir)
			listing := func() string {
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				var names []string
				for _, e := range ents {
					names = append(names, e.Name())
				}
				manifest, _ := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
				return fmt.Sprintf("%v %s", names, manifest)
			}
			before := listing()

			c := model.MustNewConfig(p, inputs)
			_, err := check.RunFrontier(p, c, pids, check.ExploreLimits{}, check.EngineOptions{Workers: 2, Checkpoint: dir, CheckpointEvery: 3},
				func(int, *check.Node, *check.View) error { return nil }, nil)
			if err == nil || !strings.Contains(err.Error(), dir) {
				t.Fatalf("resume over a frontier that is not the one written: err = %v, want an error naming %s", err, dir)
			}
			if after := listing(); after != before {
				t.Errorf("the failed resume changed the checkpoint:\nbefore %s\nafter  %s", before, after)
			}
		})
	}
}
