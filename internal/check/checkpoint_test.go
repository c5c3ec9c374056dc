package check_test

// Checkpoint/resume tests: a run killed after any committed barrier
// snapshot must resume to the identical final verdict, across stores,
// keying modes and reductions; corrupt checkpoints must quarantine and
// restart fresh, never crash or change verdicts.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/check"
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
		Shards:     8,
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

// TestCheckpointFinishedShortCircuit: resuming a run whose checkpoint
// recorded the final barrier returns the full verdict — including the
// replayed violation witness — without re-exploring.
func TestCheckpointFinishedShortCircuit(t *testing.T) {
	p := baseline.NewPairConsensus(2).WithProcesses(3)
	c := model.MustNewConfig(p, []int{0, 1, 1})
	pids := []int{0, 1, 2}
	dir := t.TempDir()
	opts := check.ExploreOptions{Engine: check.EngineOptions{Workers: 2, Shards: 8, Checkpoint: dir}}

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

// TestCheckpointValencyResume: the valency phase checkpoints its decided
// set under its own subdirectory and classifies identically on resume.
func TestCheckpointValencyResume(t *testing.T) {
	p := symRace{n: 3}
	c := model.MustNewConfig(p, []int{0, 1, 1})
	pids := []int{0, 1, 2}
	dir := t.TempDir()
	opts := check.ExploreOptions{Engine: check.EngineOptions{Workers: 2, Shards: 8, Checkpoint: dir}}

	first := classifyT(t, p, c, pids, opts)
	second := classifyT(t, p, c, pids, opts)
	if first.Class != second.Class || !reflect.DeepEqual(first.Values, second.Values) {
		t.Errorf("resumed valency = %s %v, want %s %v", second.Class, second.Values, first.Class, first.Values)
	}
	// The two phases must not have shared a directory.
	if _, err := os.Stat(filepath.Join(dir, "valency", "MANIFEST.json")); err != nil {
		t.Errorf("valency manifest: %v", err)
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

// TestCheckpointResumesEarlierManifest: manifests written before the
// Canonical hook was removed carry "canonical":false in their profile.
// Such a checkpoint must still verify and resume (not be quarantined as
// corrupt and restarted) to the same verdict.
func TestCheckpointResumesEarlierManifest(t *testing.T) {
	p := symRace{n: 4}
	c := model.MustNewConfig(p, []int{0, 0, 1, 1})
	pids := []int{0, 1, 2, 3}
	clean := exploreT(t, p, c, pids, 2, check.ExploreOptions{Engine: check.EngineOptions{Workers: 2}})

	dir := t.TempDir()
	opts := check.ExploreOptions{Engine: check.EngineOptions{Workers: 2, Checkpoint: dir}}
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

	// Rewrite the manifest the way the earlier build serialized it: the
	// extra profile field, and the checksum (over the JSON with sum 0).
	sub := filepath.Join(dir, "explore")
	mp := filepath.Join(sub, "MANIFEST.json")
	raw, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Replace(raw, []byte(`"max_configs":`), []byte(`"canonical":false,"max_configs":`), 1)
	i := bytes.LastIndex(raw, []byte(`"sum":`))
	if i < 0 || !bytes.Contains(raw, []byte(`"canonical":false`)) {
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
		t.Errorf("resumed verdict = %+v, want %+v", verdictOf(p, got), verdictOf(p, clean))
	}
	if _, err := os.Stat(filepath.Join(sub, "quarantine")); err == nil {
		t.Error("the earlier-format manifest was quarantined instead of resumed")
	}
	cleanLevels := 0
	exploreT(t, p, c, pids, 2, check.ExploreOptions{Engine: check.EngineOptions{Workers: 2,
		Progress: func(check.Progress) { cleanLevels++ }}})
	if levels >= cleanLevels {
		t.Errorf("resume ran %d levels, a fresh run %d: the checkpoint was not used", levels, cleanLevels)
	}
}

// TestCheckpointCorruptionRestartsFresh: corrupting any checkpoint file
// must quarantine the generation and restart from scratch with the same
// verdict — never crash, never a wrong verdict.
func TestCheckpointCorruptionRestartsFresh(t *testing.T) {
	p := symRace{n: 4}
	c := model.MustNewConfig(p, []int{0, 0, 1, 1})
	pids := []int{0, 1, 2, 3}

	for _, target := range []string{"MANIFEST.json", "frontier", "visited"} {
		t.Run(target, func(t *testing.T) {
			dir := t.TempDir()
			opts := check.ExploreOptions{Engine: check.EngineOptions{Workers: 2, Shards: 8, Checkpoint: dir}}
			clean := exploreT(t, p, c, pids, 2, opts)

			// Corrupt the chosen file of the committed generation.
			sub := filepath.Join(dir, "explore")
			ents, err := os.ReadDir(sub)
			if err != nil {
				t.Fatal(err)
			}
			corrupted := false
			for _, ent := range ents {
				name := ent.Name()
				if name == target || (len(name) > len(target) && name[:len(target)+1] == target+"-") {
					path := filepath.Join(sub, name)
					raw, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					raw[len(raw)/2] ^= 0x40
					if err := os.WriteFile(path, raw, 0o644); err != nil {
						t.Fatal(err)
					}
					corrupted = true
				}
			}
			if !corrupted {
				t.Fatalf("no %s file found to corrupt in %s", target, sub)
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
		Workers: 2, Shards: 8, Checkpoint: dir, CheckpointEvery: 3,
	}}
	clean := exploreT(t, p, c, pids, 2, opts)
	got := exploreT(t, p, c, pids, 2, opts)
	if !reflect.DeepEqual(verdictOf(p, got), verdictOf(p, clean)) {
		t.Errorf("resumed verdict = %+v, want %+v", verdictOf(p, got), verdictOf(p, clean))
	}
}

// TestCheckpointRejectsProvenance: checkpointing composes with neither
// provenance (in-RAM parent chains) nor >255-process protocols.
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
