package check

import "fmt"

// This file is the level-synchronized (BSP) exploration order: the worker
// loop (engine.go) served one depth level at a time. Workers drain the
// level concurrently, a chunk of nodes at a time, and queue what each
// chunk's claims admitted on their own next-level lists; the barrier once
// the level is drained resolves delayed duplicates, applies the
// sorted-fingerprint budget cutoff (StateStore.EndLevel), exchanges remote
// successors and the global verdict on a distributed run, and snapshots a
// checkpoint. The barrier, and with it all of that, is this order's alone.
//
// A budget-bound run ends in two levels that are not like the others. The
// closing level is expanded in full although it overshoots MaxConfigs —
// which of its successors survive must not depend on arrival order — and
// its barrier cuts the admissions back to the budget and closes the run.
// The level the cut kept is then visit-only (the expansion core's rule,
// engineRun.visitOnly): its configurations are visited, none is stepped,
// and the barriers, the distributed lockstep, the final checkpoint and
// Progress run over an empty next frontier.

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
		run.recycleAlways(root)
		if frontier, err = resumeFromCheckpoint(run, resumed, &stats); err != nil {
			return stats, err
		}
		startDepth = resumed.man.NextDepth
	} else {
		if run.link != nil && !run.link.Owns(root.fp) {
			// Another peer owns the root; this peer starts with an empty
			// level-0 frontier and joins the run at the first barrier.
			run.recycleAlways(root)
		} else {
			run.store.Claim(root.fp, []byte(root.key))
			if !run.store.Queue(0, root) {
				run.recycleAlways(root)
			}
			run.admitted.Store(1)
		}
		seed, err := run.store.EndLevel(run.limits.MaxConfigs)
		if err != nil {
			return stats, err
		}
		frontier = seed.Frontier
	}

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

		expandLevel(run, frontier)
		if err := run.err(); err != nil {
			return stats, err
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

		// Barrier: the store resolves delayed duplicates, applies the
		// budget cutoff and hands back the next frontier. This level may
		// have overshot MaxConfigs (admission is unthrottled within a
		// level so that the admitted set stays a pure function of the
		// space, not of thread timing); at most maxNext admissions
		// survive, chosen by sorted (fingerprint, key) — deterministic —
		// and admissions close.
		maxNext := run.limits.MaxConfigs - admittedBefore
		if maxNext < 0 {
			// Defensive: the previous barrier caps admissions at exactly
			// MaxConfigs and closes the run when it binds, so the budget
			// remainder cannot go negative — but a zero remainder is
			// reachable (a level boundary landing exactly on MaxConfigs),
			// and the clamp keeps the store contract ("at most maxNext")
			// meaningful under any future admission-accounting change.
			maxNext = 0
		}
		if run.link != nil {
			// Budget truncation is a global decision in a distributed run:
			// the store never truncates locally; the coordinator compares
			// the summed per-peer admissions against MaxConfigs at the
			// level barrier below and hands back per-peer keep counts.
			maxNext = int(^uint(0) >> 1)
		}
		lvl, err := run.store.EndLevel(maxNext)
		if err != nil {
			return stats, err
		}
		if lvl.Revoked > 0 {
			run.admitted.Add(int64(-lvl.Revoked))
		}
		if lvl.Truncated {
			run.admitted.Store(int64(run.limits.MaxConfigs))
			run.closed.Store(true)
			run.truncated.Store(true)
		}
		cl := &run.claims
		clear(cl.pending)
		clear(cl.pendingExact)
		stop := run.afterLevel != nil && run.afterLevel(depth, stats.Processed)

		distDone := false
		if run.link != nil {
			if distDone, err = distLevelBarrier(run, depth, &lvl, stop); err != nil {
				return stats, err
			}
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
		if stop {
			return stats, nil
		}
		frontier = lvl.Frontier
		if distDone {
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
// frontier, admissions queued in the store for the next level.
type levelSource struct {
	run *engineRun
	FrontierSource
}

func (l levelSource) take(_ int, buf []*Node) int { return l.Next(buf) }

func (l levelSource) put(w int, admitted []*Node, _ int) {
	for _, n := range admitted {
		if !l.run.store.Queue(w, n) {
			// The store externalized the node's content (spooled to
			// disk); its buffers are free.
			l.run.recycleAlways(n)
		}
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
	var spans [][]byte
	admitted := int64(0)
	for _, b := range blocks {
		for len(b) > 0 {
			var rec NodeRecord
			if rec, b, err = DecodeNodeRecord(b); err != nil {
				return fmt.Errorf("dist: remote successor: %w", err)
			}
			if x.claim(&cand{fp: rec.FP}, nil) == candDup {
				continue
			}
			var n *Node
			if n, spans, err = run.remat.node(rec, spans); err != nil {
				return fmt.Errorf("dist: remote successor: %w", err)
			}
			admitted++
			if !run.store.Queue(0, n) {
				run.recycleAlways(n)
			}
		}
	}
	run.admitted.Add(admitted)
	return nil
}

// distLevelBarrier is the distributed level barrier: report cumulative
// admissions and the next local frontier, and receive the global verdict
// — a keep count when the summed admissions overshot MaxConfigs (the
// coordinator merges the per-peer sorted fingerprints and cuts at the
// same global sorted order the store's own truncation uses, so the
// surviving set is peer-count-independent), and done when the global next
// frontier is empty or a peer stopped early. lvl.Frontier is replaced
// when the cutoff had to materialize it.
func distLevelBarrier(run *engineRun, depth int, lvl *LevelResult, stop bool) (done bool, err error) {
	var drained []*Node
	sortedNext := func() ([]*Node, error) {
		if drained != nil {
			return drained, nil
		}
		nodes, err := drainFrontier(lvl.Frontier)
		if err != nil {
			return nil, err
		}
		sortNodes(nodes) // by fingerprint: a distributed run has no keys
		drained = nodes
		lvl.Frontier = &memSource{nodes: nodes}
		return nodes, nil
	}
	fps := func() ([]uint64, error) {
		nodes, err := sortedNext()
		if err != nil {
			return nil, err
		}
		out := make([]uint64, len(nodes))
		for i, n := range nodes {
			out[i] = n.fp
		}
		return out, nil
	}
	db, err := run.link.BarrierLevel(depth, run.admitted.Load(), lvl.Frontier.Size(), stop, fps)
	if err != nil {
		return false, err
	}
	if db.Truncated {
		nodes, err := sortedNext()
		if err != nil {
			return false, err
		}
		if db.Keep < 0 || db.Keep > len(nodes) {
			return false, fmt.Errorf("dist: coordinator keep count %d outside [0, %d]", db.Keep, len(nodes))
		}
		for _, n := range nodes[db.Keep:] {
			run.recycleAlways(n)
		}
		run.admitted.Add(int64(-(len(nodes) - db.Keep)))
		run.closed.Store(true)
		run.truncated.Store(true)
		lvl.Frontier = &memSource{nodes: nodes[:db.Keep]}
	}
	return db.Done, nil
}

// openCheckpoint wires checkpointing for a run that asked for it: it
// loads any previous generation (nil when absent or quarantined-corrupt —
// a fresh start) and arms the writer for this run's barrier snapshots.
// The manifest profile pins everything that shapes the explored space;
// Workers/Store deliberately stay out of it, so a resume may
// change parallelism and storage freely.
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
		// plan is non-nil exactly when a symmetry reduction was requested.
		// The sleep term keeps the string earlier builds wrote, so their
		// snapshots and this build's resume each other.
		Reduction:  fmt.Sprintf("sym=%t,sleep=false", run.plan != nil),
		MaxConfigs: run.limits.MaxConfigs,
		MaxDepth:   run.limits.MaxDepth,
	}
	resumed, err := loadCheckpoint(run.opts.Checkpoint, profile)
	if err != nil {
		return nil, nil, err
	}
	startGen := 1
	if resumed != nil {
		startGen = resumed.man.Gen + 1
	}
	ckpt, err := newCkptWriter(run.opts.Checkpoint, profile, run.opts.CheckpointEvery, startGen)
	if err != nil {
		return nil, nil, err
	}
	ckpt.dump = run.store.DumpVisited
	return ckpt, resumed, nil
}

// checkpointBarrier snapshots visited + frontier + search-layer
// accumulators when a generation is due or the run is ending (early stop
// or empty frontier — a Finished manifest lets a resume return the
// verdict without re-exploring). The drained frontier replaces
// lvl.Frontier.
func checkpointBarrier(run *engineRun, ckpt *ckptWriter, depth int, lvl *LevelResult, stop bool, stats RunStats) error {
	nodes, err := drainFrontier(lvl.Frontier)
	if err != nil {
		return err
	}
	var aux []byte
	if run.opts.CheckpointAux != nil {
		if aux, err = run.opts.CheckpointAux(); err != nil {
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
		HasAux:    len(aux) > 0,
	}
	if err := ckpt.write(man, nodes, aux); err != nil {
		return err
	}
	lvl.Frontier = &memSource{nodes: nodes}
	return nil
}

// resumeFromCheckpoint seeds the engine from a loaded (and verified)
// checkpoint: the visited set is bulk-loaded into the store (bypassing
// admission — delayed-duplicate accounting already ran before the
// snapshot), the frontier is rebuilt by replaying the nodes' pid paths
// from the start configuration and re-keying them, and the run counters
// are restored so the resumed process behaves as if it had explored the
// prefix itself.
func resumeFromCheckpoint(run *engineRun, resumed *ckptLoaded, stats *RunStats) (FrontierSource, error) {
	man := resumed.man
	if err := run.store.SeedVisited(resumed.visitedFP, resumed.visitedKeys); err != nil {
		return nil, fmt.Errorf("checkpoint: seeding the visited set: %w", err)
	}
	resumed.visitedFP, resumed.visitedKeys = nil, nil // the run outlives them by hours
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
	if run.opts.CheckpointRestore != nil && len(resumed.aux) > 0 {
		if err := run.opts.CheckpointRestore(resumed.aux); err != nil {
			return nil, fmt.Errorf("checkpoint: restoring search state: %w", err)
		}
	}
	if man.Finished {
		// The run ended at the snapshot barrier; an empty frontier skips
		// the level loop and returns the restored verdict directly.
		return &memSource{}, nil
	}
	nodes, err := replayFrontier(run, resumed.frontier)
	if err != nil {
		return nil, err
	}
	resumed.frontier = nil
	return &memSource{nodes: nodes}, nil
}

// drainFrontier materializes a level's frontier into a slice. Memory
// cost is one level resident, paid only at checkpoint barriers; the
// level is then served to the workers from the slice.
func drainFrontier(src FrontierSource) ([]*Node, error) {
	if ms, ok := src.(*memSource); ok {
		return ms.nodes, nil
	}
	want := src.Size()
	nodes := make([]*Node, 0, want)
	buf := make([]*Node, chunkSize)
	for {
		m := src.Next(buf)
		if m == 0 {
			break
		}
		nodes = append(nodes, buf[:m]...)
	}
	if len(nodes) != want {
		return nil, fmt.Errorf("checkpoint: frontier drain came up short (%d of %d nodes): the store hit an I/O error reading its spooled segments", len(nodes), want)
	}
	return nodes, nil
}
