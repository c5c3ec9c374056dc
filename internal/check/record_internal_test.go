package check

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/model"
)

// outsideClassRecords returns rec, a whole ClassRecord of an instance
// with a violation at k = 1, edited two ways that a class's witness path
// reaches a configuration outside the class: value 0's witness given value
// 1's path, and the violation's witness given value 0's path. It checks
// that the edited paths really leave their classes.
func outsideClassRecords(t *testing.T, p model.Protocol, start *model.Config, rec ClassRecord) map[string]ClassRecord {
	t.Helper()
	at := func(class int) int {
		i := slices.IndexFunc(rec.Classes, func(w ClassWitness) bool { return w.Class == class })
		if i < 0 {
			t.Fatalf("record %+v has no class %d", rec, class)
		}
		return i
	}
	decides := func(w ClassWitness) []int {
		cfg, err := model.Replay(p, start, w.Path)
		if err != nil {
			t.Fatal(err)
		}
		return cfg.DecidedValues(p)
	}
	edit := func(class, from int) ClassRecord {
		out := rec
		out.Classes = slices.Clone(rec.Classes)
		w := rec.Classes[at(from)]
		w.Class = class
		out.Classes[at(class)] = w
		return out
	}
	if d := decides(rec.Classes[at(1)]); slices.Contains(d, 0) {
		t.Fatalf("value 1's witness decides %v: it does not leave value 0's class", d)
	}
	if d := decides(rec.Classes[at(0)]); len(d) > 1 {
		t.Fatalf("value 0's witness decides %v: it does not leave the violation's class", d)
	}
	return map[string]ClassRecord{
		"value-outside-class": edit(0, 1),
		"violation-within-k":  edit(violationClass, 0),
	}
}

// TestCheckpointRecordOutsideClass: a manifest whose ClassRecord names a
// witness path that reaches a configuration outside its class — re-sealed,
// so only the restore's replay can tell — fails resume with an error
// naming the checkpoint directory and leaves the directory byte-identical.
// The same manifest carrying the unedited record resumes to the verdict of
// a run that was never stopped. The distributed merge refuses the same
// records (dist's TestMergeRefusesWitnessOutsideClass).
func TestCheckpointRecordOutsideClass(t *testing.T) {
	p := baseline.NewPairConsensus(2).WithProcesses(3)
	start := model.MustNewConfig(p, []int{0, 1, 1})
	pids := []int{0, 1, 2}
	clean, err := ExploreOpts(p, start, pids, 1, ExploreOptions{Engine: EngineOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	whole, _, err := exploreOpts(p, start, pids, 1, ExploreOptions{Engine: EngineOptions{Workers: 1, Provenance: true}})
	if err != nil {
		t.Fatal(err)
	}
	rec := whole.record()

	// killed leaves dir with an unfinished generation: the run is
	// cancelled at the barrier of depth 1 and may finish one more level
	// (of the four) before it stops.
	killed := func(t *testing.T, dir string) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opts := ExploreOptions{Engine: EngineOptions{Workers: 1, Checkpoint: dir, Ctx: ctx,
			Progress: func(pr Progress) {
				if pr.Depth == 1 {
					cancel()
				}
			}}}
		if _, err := ExploreOpts(p, start, pids, 1, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("run to kill: err = %v", err)
		}
	}
	// reseal writes rec into the manifest under dir and re-sums it.
	reseal := func(t *testing.T, dir string, rec ClassRecord) {
		t.Helper()
		mp := ckptManifestPath(filepath.Join(dir, "explore"))
		raw, err := os.ReadFile(mp)
		if err != nil {
			t.Fatal(err)
		}
		var man ckptManifest
		if err := json.Unmarshal(raw, &man); err != nil {
			t.Fatal(err)
		}
		if man.Finished {
			t.Fatal("the killed run's manifest is finished")
		}
		if man.Aux, err = json.Marshal(rec); err != nil {
			t.Fatal(err)
		}
		man.Sum = man.checksum()
		if raw, err = json.Marshal(man); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mp, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// contents maps every file under dir to its bytes.
	contents := func(t *testing.T, dir string) map[string]string {
		t.Helper()
		files := map[string]string{}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			files[path] = string(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	resume := func(dir string) (*ExploreResult, error) {
		return ExploreOpts(p, start, pids, 1, ExploreOptions{Engine: EngineOptions{Workers: 1, Checkpoint: dir}})
	}

	t.Run("whole-record", func(t *testing.T) {
		dir := t.TempDir()
		killed(t, dir)
		reseal(t, dir, rec)
		got, err := resume(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got.Visited != clean.Visited || !reflect.DeepEqual(got.DecidedValues, clean.DecidedValues) ||
			got.MaxDecidedTogether != clean.MaxDecidedTogether || got.ViolationDepth != clean.ViolationDepth || got.ViolationFP != clean.ViolationFP {
			t.Errorf("resumed %+v, never stopped %+v", got, clean)
		}
	})
	for name, bad := range outsideClassRecords(t, p, start, rec) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			killed(t, dir)
			reseal(t, dir, bad)
			before := contents(t, dir)
			_, err := resume(dir)
			if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "outside") {
				t.Fatalf("resume over a witness outside its class: err = %v, want one naming %s", err, dir)
			}
			if after := contents(t, dir); !reflect.DeepEqual(after, before) {
				t.Errorf("the failed resume changed the checkpoint: %d files before, %d after", len(before), len(after))
			}
		})
	}
}
