package check

import (
	"fmt"
	"slices"

	"repro/internal/model"
)

// This file is the level-synchronized (BSP) exploration order: the worker
// loop (engine.go) served one depth level at a time. Workers drain the
// level concurrently, a chunk of nodes at a time, and queue what each
// chunk's claims admitted on their own next-level lists; the barrier once
// the level is drained resolves delayed duplicates (spillStore.EndLevel),
// applies the sorted-fingerprint budget cutoff (spillStore.CutLevel) —
// on a distributed run after exchanging remote successors and taking the
// cut's size from the coordinator — and snapshots a checkpoint. The
// barrier, and with it all of that, is this order's alone.
//
// A budget-bound run ends in two levels that are not like the others. The
// closing level overshoots MaxConfigs: every successor it reaches is
// claimed — which of them survive must not depend on arrival order — and
// its barrier cuts the admissions back to the budget, the smallest by
// (fingerprint, key), and closes the run. On the resident store of a
// single process the level builds only the claims that can still be among
// those smallest (levelBound). The level the cut kept is then visit-only
// (the expansion core's rule, engineRun.visitOnly): its configurations are
// visited, none is stepped, and the barriers, the distributed lockstep,
// the final checkpoint and Progress run over an empty next frontier.

// boundBits is how many top bits of a fingerprint pick its levelBound
// bucket.
const boundBits = 10

// levelBound is the in-level cut bound: a closing level's claims can tell,
// as they come, which admissions the barrier's cut will drop. The level
// counts its admissions per bucket of fingerprints (their top boundBits
// bits); once buckets 0..top hold keep of them, an admission in a bucket
// above top has at least keep smaller ones, so the cut cannot keep it.
// Such a claim stays in the visited set, but no node is built or queued
// for it. It runs on a single process's resident store only: the spilled
// frontier and a distributed peer's (whose cut is the coordinator's) keep
// every admission to the barrier. The claims update it under the claim
// lock.
type levelBound struct {
	on   bool
	keep int      // the budget's remainder: how many admissions the cut keeps
	hist []uint32 // admissions per bucket; allocated when a level first arms it
	// top is the smallest bucket b with hist[0..b] holding keep
	// admissions, the last bucket while there is none; below is
	// hist[0..top] summed.
	top, below int
	// dropped records that an admission was not built: the level is
	// truncated, whatever the built count.
	dropped bool
}

// arm starts the bound over a level whose cut keeps keep admissions.
func (b *levelBound) arm(keep int) {
	if b.hist == nil {
		b.hist = make([]uint32, 1<<boundBits)
	} else {
		clear(b.hist)
	}
	b.on, b.keep, b.top, b.below, b.dropped = true, keep, len(b.hist)-1, 0, false
	if keep == 0 {
		b.top = -1
	}
}

// admit counts an admission of fp and reports whether the cut can keep it.
func (b *levelBound) admit(fp uint64) bool {
	k := int(fp >> (64 - boundBits))
	if k > b.top {
		b.dropped = true
		return false
	}
	b.hist[k]++
	b.below++
	for b.top >= 0 && b.below-int(b.hist[b.top]) >= b.keep {
		b.below -= int(b.hist[b.top])
		b.top--
	}
	return true
}

// runLevelSync is the level loop. root is fully keyed and not yet in the
// store.
func runLevelSync(run *engineRun, root *Node) (RunStats, error) {
	stats := RunStats{Complete: true, Async: AsyncStats{Order: OrderLevelSync}}

	// Seed level 0 — from the checkpoint when resuming (the store's
	// visited set is rebuilt wholesale and the frontier replayed from
	// paths, bypassing the admission queue entirely), otherwise by
	// admitting the root through the store like any node (the store may
	// spool it straight to disk), then drawing it back as level 0.
	ckpt, resumed, err := openCheckpoint(run, root.slotFP)
	if err != nil {
		return stats, err
	}
	var frontier FrontierSource
	startDepth := 0
	if resumed != nil {
		run.recycle(0, root)
		if frontier, err = resumeFromCheckpoint(run, resumed, &stats); err != nil {
			return stats, err
		}
		startDepth = resumed.man.NextDepth
	} else {
		if run.link != nil && !run.link.Owns(root.fp) {
			// Another peer owns the root; this peer starts with an empty
			// level-0 frontier and joins the run at the first barrier.
			run.recycle(0, root)
		} else {
			run.store.Claim(root.fp, run.store.ctx.nodeKey(root))
			run.store.Queue(0, root)
			run.admitted.Store(1)
		}
		if _, err := run.store.EndLevel(); err != nil {
			return stats, err
		}
		seed, err := run.store.CutLevel(run.limits.MaxConfigs)
		if err != nil {
			return stats, err
		}
		frontier = seed.Frontier
	}

	// growth is the admissions per node of the last level expanded, to
	// judge whether the next can overshoot its cut; before any, the
	// process count bounds it (a node has a successor per process at most).
	growth := float64(run.nProc)
	bounded := run.link == nil && run.store.budget == 0

	// A distributed peer enters every level in lockstep with its peers —
	// even with an empty local frontier it must run the expand and level
	// barriers — and leaves when the coordinator declares the global
	// frontier empty.
	for depth := startDepth; run.link != nil || frontier.Size() > 0; depth++ {
		stats.Levels++
		levelSize := frontier.Size()
		admittedBefore := int(run.admitted.Load())
		atDepthCap := run.limits.MaxDepth > 0 && depth >= run.limits.MaxDepth
		progress := func() {
			run.report(Progress{Depth: depth, FrontierSize: levelSize, Processed: stats.Processed})
		}

		// A level whose admissions, predicted from the previous level's
		// growth, reach half the budget's remainder is built under the cut
		// bound: it may overshoot, since growth can double from a level to
		// the next.
		remainder := max(run.limits.MaxConfigs-admittedBefore, 0)
		if bounded && !atDepthCap && !run.closed.Load() && 2*float64(levelSize)*growth > float64(remainder) {
			run.bound.arm(remainder)
		}
		if run.opts.Provenance {
			// The level's claims start at the delta's next entry index: a
			// spill flush renumbered the delta at the barrier, if at all.
			// The column is sized for the admissions growth predicts.
			run.claims.claims = slices.Grow(run.claims.claims[:0], int(float64(levelSize)*growth))
			run.claims.base = uint32(run.store.delta.len())
		}
		expandLevel(run, frontier)
		run.bound.on = false
		if err := run.err(); err != nil {
			return stats, err
		}
		if replay, ok := frontier.(*replaySource); ok {
			if err := replay.verify(); err != nil {
				return stats, err
			}
		}
		stats.Processed += levelSize
		if atDepthCap {
			stats.Complete = false
			if run.link == nil {
				progress()
				break
			}
			// Distributed peers stay in lockstep instead of breaking: no
			// successors were generated (every peer is at the same depth),
			// so the barriers below see an empty global next frontier and
			// the coordinator ends the run.
		}
		if run.link != nil {
			if err := distExpandBarrier(run, depth); err != nil {
				return stats, err
			}
		}

		// Barrier: the store resolves delayed duplicates and reports the
		// surviving admissions. This level may have overshot MaxConfigs
		// (admission is unthrottled within a level so that the admitted set
		// stays a pure function of the space, not of thread timing).
		survivors, err := run.store.EndLevel()
		if err != nil {
			return stats, err
		}
		if levelSize > 0 {
			growth = float64(survivors) / float64(levelSize)
		}
		// This level's provenance overrides settle: the next level's nodes
		// take them as they are handed out.
		cl := &run.claims
		cl.parentKeys.reset()
		cl.settled, cl.overrides = cl.overrides, cl.settled
		cl.overrides.clear()
		stop := run.afterLevel != nil && run.afterLevel(depth, stats.Processed)

		// The budget cut keeps at most maxNext survivors, chosen by sorted
		// (fingerprint, key) — deterministic — and closes admissions. In
		// one process maxNext is the budget's remainder (zero when a level
		// boundary lands exactly on MaxConfigs). On a peer the cut is the
		// coordinator's: peers own ascending fingerprint ranges, so the
		// global sorted order is peer 0's survivors, then peer 1's, and
		// the global cut keeps a prefix of each peer's.
		maxNext := remainder
		var db DistBarrier
		if run.link != nil {
			if db, err = run.link.BarrierLevel(depth, int64(admittedBefore+survivors), survivors, stop); err != nil {
				return stats, err
			}
			maxNext = survivors
			if db.Truncated {
				if db.Keep < 0 || db.Keep > survivors {
					return stats, fmt.Errorf("dist: coordinator keep count %d outside [0, %d]", db.Keep, survivors)
				}
				maxNext = db.Keep
			}
		}
		lvl, err := run.store.CutLevel(maxNext)
		if err != nil {
			return stats, err
		}
		run.admitted.Store(int64(admittedBefore + lvl.Frontier.Size()))
		if lvl.Truncated || db.Truncated || run.bound.dropped {
			run.closed.Store(true)
			run.truncated.Store(true)
		}
		if run.truncated.Load() {
			stats.Complete = false
		}
		// The early-stop decision is taken BEFORE the snapshot so Finished
		// is recorded truthfully.
		if ckpt != nil && (stop || lvl.Frontier.Size() == 0 || ckpt.due(depth)) {
			if err := checkpointBarrier(run, ckpt, depth, &lvl, stop, stats); err != nil {
				return stats, err
			}
		}
		progress()
		// A cancel issued from Progress reaches the run only through
		// context.AfterFunc, asynchronously: look now, so that no further
		// level starts after it.
		if ctx := run.opts.Ctx; ctx != nil && ctx.Err() != nil {
			return stats, fmt.Errorf("frontier engine: %w", ctx.Err())
		}
		if stop {
			return stats, nil
		}
		frontier = lvl.Frontier
		if db.Done {
			break
		}
	}
	return stats, nil
}

// expandLevel runs the worker loop over one level's frontier with up to
// Workers goroutines and returns once every candidate successor has been
// claimed (or shipped) and the admitted ones queued. A level drained by a
// single worker skips the goroutines, and the claim lock, entirely. A
// visit-only level (engineRun.visitOnly: the depth cap, or the level after
// the barrier that closed admissions) plans no successors, so its workers
// only visit. A failure lands in run.fail; the caller checks.
func expandLevel(run *engineRun, frontier FrontierSource) {
	levelSize := frontier.Size()
	// Never more goroutines than nodes (visits may be expensive, so no
	// fewer either), and one on a distributed peer's empty level, so that
	// its barriers fire.
	nw := max(1, min(run.opts.Workers, levelSize))
	// A chunk large enough to amortize the claim, small enough that the
	// level's tail stays balanced across workers.
	pull := min(levelSize/(4*nw)+1, chunkSize)
	src := levelSource{run, frontier}
	runWorkers(nw, func(w int) {
		run.workerLoop(w, src, pull, nw > 1)
		if run.link != nil {
			run.fail(run.link.FlushWorker(w))
		}
	})
}

// levelSource is the level order's workSource: chunks from the level's
// frontier, admissions queued in the store for the next level. take hands
// a provenance run's node out with the path of the claim that won it at
// the last barrier, whether the node waited in RAM or in a segment.
type levelSource struct {
	run *engineRun
	FrontierSource
}

func (l levelSource) take(w int, buf []*Node) int {
	m := l.Next(w, buf)
	if settled := &l.run.claims.settled; settled.len() > 0 {
		for _, n := range buf[:m] {
			if path, ok := settled.path(n.fp, l.run.store.ctx.nodeKey(n)); ok {
				n.path = append(n.path[:0], path...)
				n.Pid = int(path[len(path)-1])
			}
		}
	}
	return m
}

func (l levelSource) put(w int, admitted []*Node, _ int) {
	for _, n := range admitted {
		l.run.store.Queue(w, n)
	}
}

// distExpandBarrier is the distributed expand barrier: flush, announce
// this peer's level complete, wait for every peer to finish expanding,
// then claim the remote successors addressed here — on the record alone,
// so a duplicate is never rematerialised. Admission is single-threaded at
// this point (the workers have joined), so remote arrival order cannot
// leak into the result.
func distExpandBarrier(run *engineRun, depth int) error {
	blocks, err := run.link.BarrierExpand(depth)
	if err != nil {
		return err
	}
	x := run.expander(0)
	var sc recScratch
	admitted := int64(0)
	for _, b := range blocks {
		for len(b) > 0 {
			var rec NodeRecord
			if rec, b, err = DecodeNodeRecord(b); err != nil {
				return fmt.Errorf("dist: remote successor: %w", err)
			}
			if x.claim(&cand{fp: rec.FP}, "") == candDup {
				continue
			}
			var n *Node
			if n, err = run.remat.node(0, &rec, &sc); err != nil {
				return fmt.Errorf("dist: remote successor: %w", err)
			}
			admitted++
			run.store.Queue(0, n)
		}
	}
	run.admitted.Add(admitted)
	return nil
}

// openCheckpoint wires checkpointing for a run that asked for it: it
// loads any previous generation (nil when absent or quarantined-corrupt —
// a fresh start), arms the writer for this run's barrier snapshots and has
// the store record the visited deltas. The manifest profile pins
// everything that shapes the explored space; Workers/Store deliberately
// stay out of it, so a resume may change parallelism and storage freely.
func openCheckpoint(run *engineRun, startFP uint64) (*ckptWriter, *ckptLoaded, error) {
	if run.opts.Checkpoint == "" {
		return nil, nil, nil
	}
	profile := ckptProfile{
		Protocol:   run.p.Name(),
		NObj:       run.nObj,
		NProc:      run.nProc,
		StartFP:    startFP,
		StringKeys: run.opts.StringKeys,
		// Whether the quotient is active, not whether it was asked for: a
		// run whose refinement dissolved every class visits what an
		// unreduced one does.
		Reduction:  fmt.Sprintf("sym=%t", len(run.symClasses) > 0),
		MaxConfigs: run.limits.MaxConfigs,
		MaxDepth:   run.limits.MaxDepth,
	}
	resumed, err := loadCheckpoint(run.opts.Checkpoint, profile, run.dict)
	if err != nil {
		return nil, nil, err
	}
	startGen := 1
	if resumed != nil {
		startGen = resumed.man.Gen + 1
	}
	var exact *model.Dict // lays out exact keys' encodings
	if run.opts.StringKeys {
		exact = run.dict
	}
	ckpt, err := newCkptWriter(run.opts.Checkpoint, profile, run.opts.CheckpointEvery, startGen, exact)
	if err != nil {
		return nil, nil, err
	}
	run.store.keep = true
	return ckpt, resumed, nil
}

// checkpointBarrier snapshots the visited delta + frontier + search-layer
// accumulators when a generation is due or the run is ending (early stop
// or empty frontier — a Finished manifest lets a resume return the
// verdict without re-exploring). The drained frontier replaces
// lvl.Frontier.
func checkpointBarrier(run *engineRun, ckpt *ckptWriter, depth int, lvl *LevelResult, stop bool, stats RunStats) error {
	nodes, err := run.drainFrontier(lvl.Frontier)
	if err != nil {
		return err
	}
	var aux []byte
	if run.opts.checkpointAux != nil {
		if aux, err = run.opts.checkpointAux(); err != nil {
			return fmt.Errorf("checkpoint: serializing search state: %w", err)
		}
	}
	man := ckptManifest{
		NextDepth: depth + 1,
		Processed: stats.Processed,
		Levels:    stats.Levels,
		Admitted:  run.admitted.Load(),
		Closed:    run.closed.Load(),
		Truncated: run.truncated.Load(),
		Finished:  stop || len(nodes) == 0,
		Aux:       aux,
	}
	if err := ckpt.write(man, run.store.takeAdded(), nodes); err != nil {
		return err
	}
	lvl.Frontier = &memSource{nodes: nodes}
	return nil
}

// resumeFromCheckpoint seeds the engine from a loaded (and verified)
// checkpoint: the visited set is bulk-loaded into the store (bypassing
// admission — delayed-duplicate accounting already ran before the
// snapshot), the run counters are restored so the resumed process
// behaves as if it had explored the prefix itself, and the frontier's
// paths become the first level's source, replayed as the workers take
// them (none for a finished run, which skips the level loop and returns
// the restored verdict directly).
func resumeFromCheckpoint(run *engineRun, resumed *ckptLoaded, stats *RunStats) (FrontierSource, error) {
	man := resumed.man
	if err := run.store.SeedVisited(resumed.visited); err != nil {
		return nil, fmt.Errorf("checkpoint: seeding the visited set: %w", err)
	}
	resumed.visited = entryList{} // the run outlives it by hours
	run.admitted.Store(man.Admitted)
	if man.Closed {
		run.closed.Store(true)
	}
	if man.Truncated {
		run.truncated.Store(true)
		stats.Complete = false
	}
	stats.Processed = man.Processed
	stats.Levels = man.Levels
	if run.opts.checkpointRestore != nil && len(man.Aux) > 0 {
		if err := run.opts.checkpointRestore(man.Aux); err != nil {
			return nil, fmt.Errorf("checkpoint %s: restoring search state: %w", run.opts.Checkpoint, err)
		}
	}
	if man.Finished {
		resumed.paths = nil
	}
	return &replaySource{ckptLoaded: resumed, run: run}, nil
}

// drainFrontier materializes a level's frontier into a slice. Memory
// cost is one level resident, paid only at checkpoint barriers; the
// level is then served to the workers from the slice. A spooled frontier
// stops handing out nodes once the run has stopped (a failed segment read,
// a cancel), so a short drain returns the run's error.
func (r *engineRun) drainFrontier(src FrontierSource) ([]*Node, error) {
	if ms, ok := src.(*memSource); ok {
		return ms.nodes, nil
	}
	want := src.Size()
	nodes := make([]*Node, 0, want)
	buf := make([]*Node, chunkSize)
	for {
		m := src.Next(0, buf)
		if m == 0 {
			break
		}
		nodes = append(nodes, buf[:m]...)
	}
	if len(nodes) != want {
		if err := r.err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("frontier engine: frontier drain came up short (%d of %d nodes)", len(nodes), want)
	}
	return nodes, nil
}
