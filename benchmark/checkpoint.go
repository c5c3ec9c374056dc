package main

import (
	"context"
	"errors"
	"io/fs"
	"path/filepath"

	"repro/internal/check"
)

// killLevel is the BFS level after whose barrier the checkpointed run
// is cancelled: about a quarter of the budget is done by then at either
// scale (level 12: 278k of 1M states; level 8: 11k of 20k).
func killLevel(sc scale) int {
	if sc == smoke {
		return 8
	}
	return 12
}

// runToKill explores the levelsync instance at 2 workers until the
// barrier of killLevel, then cancels the run through EngineOptions.Ctx
// from the Progress callback: the state a killed process leaves, with
// the last snapshot at the interrupted barrier. checkpointDir "" runs
// the same thing without checkpointing (the write-overhead reference).
func runToKill(r *rep, in *instance, checkpointDir string) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := in.spec.engine
	eng.Ctx = ctx
	eng.Checkpoint = checkpointDir
	kill := killLevel(r.scale)
	return r.timed("check.ExploreOpts(to kill)", func(span int) error {
		lt := r.traceLevels(span, &eng)
		eng.Progress = func(pr check.Progress) {
			if lt != nil {
				lt.progress(pr)
			}
			if pr.Depth >= kill {
				cancel()
			}
		}
		_, err := in.explore(eng)
		if errors.Is(err, context.Canceled) {
			return nil
		}
		if err == nil {
			return errors.New("run finished before the kill level")
		}
		return err
	})
}

// runCheckpointResume is the checkpoint-resume workload: a checkpointed
// run killed at a barrier, then a second run on the same directory that
// resumes to the verdict. Both calls are timed; the verdict must be the
// uninterrupted run's.
func runCheckpointResume(r *rep) {
	in, err := levelsync2wSpec(r.scale).build(r)
	if err != nil {
		r.check(false, "set-up: %v", err)
		return
	}
	dir := filepath.Join(r.dir, "ckpt")
	if err := runToKill(r, in, dir); err != nil {
		r.check(false, "checkpoint-resume: run to kill: %v", err)
		return
	}
	killS := r.wall.Seconds()
	r.layer["checkpoint.bytes"] = float64(dirBytes(dir))

	eng := in.spec.engine
	eng.Checkpoint = dir
	var res *check.ExploreResult
	var lt *levelTrace
	err = r.timed("check.ExploreOpts(resume)", func(span int) error {
		lt = r.traceLevels(span, &eng)
		var err error
		res, err = in.explore(eng)
		return err
	})
	in.verify(r, "checkpoint-resume: resumed run", res, err)
	if err != nil {
		return
	}
	r.checkLayers(res, lt)
	r.layer["checkpoint.resume_s"] = r.wall.Seconds() - killS
	if lt != nil {
		r.layer["checkpoint.restore_s"] = lt.first.Seconds()
	}
}

// runKillNoCheckpoint is the write-overhead reference: the same run to
// the same kill with Checkpoint empty.
func runKillNoCheckpoint(r *rep) {
	in, err := levelsync2wSpec(r.scale).build(r)
	if err != nil {
		r.check(false, "set-up: %v", err)
		return
	}
	err = runToKill(r, in, "")
	r.check(err == nil, "run to kill without checkpoint: %v", err)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
