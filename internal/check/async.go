package check

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the barrier-free exploration order (EngineOptions.Order =
// "async"): the worker loop (engine.go) fed from per-worker deques instead
// of a level, with no barrier.
//
//   - Each worker owns a deque of admitted nodes, a stack under a lock. It
//     takes up to half of it (at most asyncChunk nodes, newest first) and
//     pushes what the chunk's claims admitted back on top; an idle worker
//     steals the oldest node of another's. The search order is a
//     depth-leaning interleaving that depends on thread timing —
//     deliberately. Verdicts do not: the visited SET is the level order's
//     (async_test.go).
//
//   - Termination is counter-based quiescence. outstanding counts nodes in
//     deques plus nodes taken and not finished; a worker moves it once per
//     chunk, by (nodes admitted − nodes taken), BEFORE it pushes the
//     admissions, so it never under-counts live work and zero is stable.
//     An idle worker that reads zero checks that every deque is empty and
//     re-reads it (AsyncStats.QuiescenceScans counts the attempts).
//
//   - MaxConfigs is admit-then-check (expander.commit): the chunk that
//     overflows the budget closes admissions and drops its surplus, so
//     WHICH states fill the budget depends on timing. What is still
//     queued at the close is visited and not expanded (engineRun.visitOnly).
//
//   - MaxDepth is exact by depth relaxation: the claims track the best
//     depth per state, and a duplicate reached by a shorter path is pushed
//     again as a reexpand item, stepped and not visited again.
//
// What this order gives up — provenance, exact keys, the spill store,
// distribution and checkpoints, each of which needs the level barrier —
// is one ModeConflicts row each.

// Exploration order names accepted by EngineOptions.Order.
const (
	// OrderLevelSync is the level-synchronized (BSP) order: deterministic,
	// barrier at every BFS level edge (the default; "" means the same).
	OrderLevelSync = "levelsync"
	// OrderAsync is the barrier-free work-stealing order: per-worker
	// deques, continuous admission, quiescence-counter termination. Same
	// verdicts, no schedule determinism.
	OrderAsync = "async"
)

// parseOrder validates an Order mode string.
func parseOrder(order string) (async bool, err error) {
	switch order {
	case "", OrderLevelSync:
		return false, nil
	case OrderAsync:
		return true, nil
	default:
		return false, fmt.Errorf("frontier engine: unknown order %q (have %q, %q)",
			order, OrderLevelSync, OrderAsync)
	}
}

// AsyncStats reports an exploration-order run's scheduling activity; the
// sweep JSONL records carry it so async runs are auditable. Async runs in
// one process, so a distributed run's merged result carries Order alone.
type AsyncStats struct {
	// Order is the exploration order that ran ("levelsync" or "async").
	Order string `json:"order"`
	// Steals is the number of nodes taken from another worker's deque
	// (async only; timing-dependent, a load-balance diagnostic).
	Steals int64 `json:"steals,omitempty"`
	// QuiescenceScans is the number of termination-detection attempts: a
	// worker observed the outstanding-work counter at zero and checked
	// every deque. At least 1 on every completed async run.
	QuiescenceScans int64 `json:"quiescence_scans,omitempty"`
}

// asyncChunk caps the nodes an async worker takes from its deque at once.
// It is far below the level loop's chunkSize because this order's value is
// its depth-leaning shape: a worker that expands few nodes before it turns
// to their successors keeps the frontier narrow and reaches deep (decided)
// configurations early (row 3 at 1M, 2 workers: 0.52 s and 51 MB at 32
// against 0.55 s and 57 MB at 256).
const asyncChunk = 32

// asyncStallHook, when non-nil, is invoked by an idle worker right before
// its steal sweep — a test seam for stalling a worker mid-steal and
// proving quiescence detection does not fire early (async_internal_test).
var asyncStallHook func(worker int)

// wsDeque is one worker's work-stealing deque: a stack under a lock. The
// owner pushes and takes at the top, thieves steal at the bottom.
type wsDeque struct {
	mu    sync.Mutex
	nodes []*Node
	_     [32]byte // a cache line per deque
}

// push puts ns on top.
func (d *wsDeque) push(ns ...*Node) {
	d.mu.Lock()
	d.nodes = append(d.nodes, ns...)
	d.mu.Unlock()
}

// take fills buf from the top, newest first, with half of the deque
// rounded up (at most len(buf)) and returns how many it took.
func (d *wsDeque) take(buf []*Node) int {
	d.mu.Lock()
	top := len(d.nodes)
	m := min(len(buf), (top+1)/2)
	for i := range m {
		buf[i] = d.nodes[top-1-i]
	}
	clear(d.nodes[top-m:])
	d.nodes = d.nodes[:top-m]
	d.mu.Unlock()
	return m
}

// steal takes the bottom (oldest) node, or returns nil.
func (d *wsDeque) steal() *Node {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.nodes) == 0 {
		return nil
	}
	n := d.nodes[0]
	d.nodes[0] = nil
	d.nodes = d.nodes[1:]
	return n
}

// empty reports whether the deque holds no node.
func (d *wsDeque) empty() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.nodes) == 0
}

// dequeSource is the async order's workSource: the workers' deques and
// the quiescence counter.
type dequeSource struct {
	run         *engineRun
	deques      []wsDeque
	outstanding atomic.Int64 // see the file comment
	steals      atomic.Int64
	scans       atomic.Int64
	stopped     atomic.Bool // afterLevel asked for an early stop
}

// take returns w's next chunk: from its own deque, else one node stolen
// from another's, else — once the run is quiescent or over — nothing.
func (s *dequeSource) take(w int, buf []*Node) int {
	for idle := 0; !s.run.doneFlag.Load(); idle++ {
		if m := s.deques[w].take(buf); m > 0 {
			return m
		}
		if hook := asyncStallHook; hook != nil {
			hook(w)
		}
		for i := 1; i < len(s.deques); i++ {
			if n := s.deques[(w+i)%len(s.deques)].steal(); n != nil {
				s.steals.Add(1)
				buf[0] = n
				return 1
			}
		}
		switch {
		case s.outstanding.Load() == 0:
			s.scans.Add(1)
			if s.quiescent() {
				s.run.finish()
				return 0
			}
		case idle < 4:
			runtime.Gosched()
		default:
			// Work is on its way into a deque from a worker mid-chunk.
			time.Sleep(100 * time.Microsecond)
		}
	}
	return 0
}

// put retires the chunk's m units and publishes its admissions in one
// move, before the first of them becomes stealable.
func (s *dequeSource) put(w int, admitted []*Node, m int) {
	s.outstanding.Add(int64(len(admitted) - m))
	s.deques[w].push(admitted...)
}

// quiescent is the validating scan after outstanding read zero: under the
// counting discipline zero already means done; the scan turns an
// accounting bug into a hang with evidence instead of a partial result.
func (s *dequeSource) quiescent() bool {
	for i := range s.deques {
		if !s.deques[i].empty() {
			return false
		}
	}
	return s.outstanding.Load() == 0
}

// runAsync is the async-order counterpart of runLevelSync. root is a
// fully keyed node not yet in the store.
func runAsync(run *engineRun, root *Node) (RunStats, error) {
	nw := run.opts.Workers
	s := &dequeSource{run: run, deques: make([]wsDeque, nw)}
	// The mode table keeps async on the in-memory store, and of that it
	// uses the visited table alone: nodes never queue in the store.
	run.store.Claim(root.fp, nil)
	run.admitted.Store(1)
	if depth := run.claims.depth; depth != nil {
		depth[root.fp] = 0
	}
	s.outstanding.Store(1)
	s.deques[0].push(root)
	for w := range nw {
		run.expander(w) // before the monitor reads their visit counts
	}

	var monWG sync.WaitGroup
	if run.opts.Progress != nil || run.afterLevel != nil {
		monWG.Add(1)
		go func() {
			defer monWG.Done()
			s.monitor()
		}()
	}
	runWorkers(nw, func(w int) { run.workerLoop(w, s, asyncChunk, nw > 1) })
	run.finish() // covers error and cancel exits; quiescence already called it
	monWG.Wait()

	stats := RunStats{Processed: run.processed(),
		Async: AsyncStats{Order: OrderAsync, Steals: s.steals.Load(), QuiescenceScans: s.scans.Load()}}
	if err := run.err(); err != nil {
		return stats, err
	}
	stats.Complete = !run.truncated.Load()
	if run.limits.MaxDepth > 0 && !s.stopped.Load() {
		// Relaxation ran to its fixpoint: the depth map holds every state's
		// true BFS depth, and a state at the cap was visited, not expanded —
		// the level order's incompleteness condition.
		for _, d := range run.claims.depth {
			if d >= run.limits.MaxDepth {
				stats.Complete = false
				break
			}
		}
	}
	run.report(Progress{Order: OrderAsync, Depth: -1, Processed: stats.Processed})
	return stats, nil
}

// processed is the number of nodes the workers have visited so far.
func (r *engineRun) processed() int {
	n := int64(0)
	for _, x := range r.expanders {
		n += x.visited.Load()
	}
	return int(n)
}

// monitor reports progress and polls afterLevel on a wall-clock tick (the
// order has no levels; afterLevel receives depth -1 and the cumulative
// visit count).
func (s *dequeSource) monitor() {
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.run.done:
			return
		case <-tick.C:
			processed := s.run.processed()
			if s.run.afterLevel != nil && s.run.afterLevel(-1, processed) {
				s.stopped.Store(true)
				s.run.finish()
				return
			}
			s.run.report(Progress{Order: OrderAsync, Depth: -1, Processed: processed})
		}
	}
}
