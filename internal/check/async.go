package check

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the barrier-free asynchronous exploration order
// (EngineOptions.Order = "async"): a work-stealing alternative to the
// level-synchronized loop in levelsync.go that removes the per-level
// EndLevel barrier entirely. Like that loop it is a scheduler over the
// shared expansion core (expand.go): successor keying, the claim in the
// visited set and node building are the expander's; this file owns where
// nodes wait (deques), what a claim means without a barrier (continuous
// admission, with depth relaxation under a MaxDepth cap) and when the run
// is over (quiescence).
//
// Structure:
//
//   - Each worker owns a Chase-Lev work-stealing deque of admitted nodes.
//     The owner pushes and pops at the bottom; idle workers steal from the
//     top. There is no global frontier and no level edge: a worker expands
//     whatever is nearest (LIFO at the owner, a chunk at a time; FIFO for
//     thieves), so the search order is a depth-leaning interleaving that
//     depends on thread timing — deliberately. Verdicts do not: the
//     visited SET is the same as the level-synchronized engine's (the
//     differential suite in async_test.go pins this per protocol,
//     unreduced and under "sym").
//
//   - Admission is the level loop's: a worker claims its chunk's
//     candidates under one hold of the claim lock (expander.commit). What the claims admit it pushes on its own deque
//     — the Chase-Lev owner-only push — instead of a next-level queue.
//
//   - Termination is counter-based quiescence detection. A global
//     outstanding-work counter tracks published units of work: nodes in
//     deques and nodes a worker has taken and not finished. A worker moves
//     it once per chunk, by (nodes admitted − nodes finished), after the
//     chunk's claims and BEFORE it pushes what they admitted. Under that
//     discipline the counter never under-counts live work: a node is
//     counted from before it becomes stealable until the chunk it was
//     expanded in has counted its successors. So outstanding == 0 is a
//     stable property that already implies termination; the double-scan
//     (read zero → sweep every deque for emptiness → re-read zero) is
//     validation against accounting bugs, and each attempt is counted in
//     AsyncStats.QuiescenceScans.
//
//   - MaxConfigs uses admit-then-check: a chunk's claims go into the
//     visited tables, the shared counter moves by the admissions, and on
//     overflow the counter is rolled back to the budget, admissions close
//     and the overflowing claims are dropped (the tables keep phantom
//     entries, which can only suppress states that would have been rejected
//     anyway). Runs whose space fits the budget can never spuriously
//     truncate, so exact differential comparisons hold; when truncation
//     does fire, WHICH states survive is timing-dependent (unlike the level
//     engine's sorted-fingerprint cutoff) and the run is marked incomplete
//     either way. What is still queued at the close is visited and not
//     expanded — the expansion core's rule for a closed run
//     (engineRun.visitOnly), the one the level engine's last level follows.
//
//   - MaxDepth is supported exactly by depth re-relaxation: the claims
//     track the best-known depth per fingerprint, and a duplicate arriving
//     via a shorter path re-enqueues the state as a "deepen" item that is
//     re-expanded (not re-visited) at the improved depth. Depths per
//     state strictly decrease, so relaxation terminates, and on
//     completion every state's recorded depth is its true BFS depth —
//     the visited set equals the level engine's {minDepth <= cap} set,
//     and Complete is computed from the final depth map.
//
// What async gives up: provenance (witness schedules need the
// deterministic level order), exact string keys (admission order would
// pick timing-dependent representatives among colliding encodings), the
// spill store (the frontier lives in the deques, so a store budget bounds
// nothing) and distribution (the admit-then-check budget above is one
// shared counter; across peers it would be one counter each, and a capped
// run would visit up to peers x MaxConfigs) — all rejected loudly through
// ModeConflicts — plus deterministic truncation survivors and
// deterministic reduction counters. Async runs in one process: everything
// the level engine promises about verdicts — visited-set size,
// decided-value sets, violation existence, completeness — is preserved.

// Exploration order names accepted by EngineOptions.Order.
const (
	// OrderLevelSync is the level-synchronized (BSP) order: deterministic,
	// barrier at every BFS level edge (the default; "" means the same).
	OrderLevelSync = "levelsync"
	// OrderAsync is the barrier-free work-stealing order: per-worker
	// Chase-Lev deques, continuous admission, quiescence-counter
	// termination. Same verdicts, no schedule determinism.
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
	// worker observed the outstanding-work counter at zero and ran the
	// validating double-scan. At least 1 on every completed async run.
	QuiescenceScans int64 `json:"quiescence_scans,omitempty"`
}

// asyncChunk caps the nodes an async worker takes from its deque at once.
// It is far below the level loop's chunkSize because this order's value is
// its depth-leaning shape: a worker that expands few nodes before it turns
// to their successors keeps the frontier narrow and reaches deep (decided)
// configurations early, and the claim lock taken once per 32 nodes costs
// no more than once per 256 (row 3 at 1M, 2 workers: 0.52 s and 51 MB at
// 32 against 0.55 s and 57 MB at 256, 5 alternating pairs, 5/5).
const asyncChunk = 32

// asyncStallHook, when non-nil, is invoked by an idle worker right before
// its steal sweep — a test seam for stalling a worker mid-steal and
// proving quiescence detection does not fire early (async_internal_test).
var asyncStallHook func(worker int)

// ---- Chase-Lev work-stealing deque ----

// wsArray is one ring buffer generation of a deque. Slots are atomic so
// the owner's put and a thief's read race benignly (the CAS on top
// validates every taken element); retired generations are reclaimed by
// the GC, which is what makes the top counter ABA-free.
type wsArray struct {
	mask int64
	slot []atomic.Pointer[Node]
}

func (a *wsArray) get(i int64) *Node    { return a.slot[i&a.mask].Load() }
func (a *wsArray) put(i int64, n *Node) { a.slot[i&a.mask].Store(n) }

// wsDeque is a Chase-Lev work-stealing deque: single owner pushes and
// pops at the bottom, any number of thieves steal from the top. All
// fields are accessed through atomics (Go atomics are sequentially
// consistent, covering the algorithm's fence requirements and keeping
// the race detector clean).
type wsDeque struct {
	bottom atomic.Int64
	top    atomic.Int64
	arr    atomic.Pointer[wsArray]
}

func newWSDeque() *wsDeque {
	d := &wsDeque{}
	d.arr.Store(&wsArray{mask: 255, slot: make([]atomic.Pointer[Node], 256)})
	return d
}

// push appends at the bottom (owner only).
func (d *wsDeque) push(n *Node) {
	b := d.bottom.Load()
	t := d.top.Load()
	a := d.arr.Load()
	if b-t > a.mask {
		// Full: double, copying the live window [t, b). Thieves holding
		// the old array still validate through the shared top counter.
		na := &wsArray{mask: 2*a.mask + 1, slot: make([]atomic.Pointer[Node], 2*(a.mask+1))}
		for i := t; i < b; i++ {
			na.put(i, a.get(i))
		}
		d.arr.Store(na)
		a = na
	}
	a.put(b, n)
	d.bottom.Store(b + 1)
}

// pop takes from the bottom (owner only); nil means empty. The
// last-element race against thieves is settled by a CAS on top.
func (d *wsDeque) pop() *Node {
	b := d.bottom.Load() - 1
	a := d.arr.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		d.bottom.Store(b + 1)
		return nil
	}
	n := a.get(b)
	if t == b {
		if !d.top.CompareAndSwap(t, t+1) {
			n = nil // a thief won the last element
		}
		d.bottom.Store(b + 1)
		return n
	}
	return n
}

// steal takes from the top (any goroutine). retry reports a CAS conflict
// with the owner or another thief — the deque may still be non-empty.
func (d *wsDeque) steal() (n *Node, retry bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil, false
	}
	a := d.arr.Load()
	n = a.get(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return nil, true
	}
	return n, false
}

// empty is a racy emptiness probe for the quiescence double-scan: exact
// whenever no owner operation is in flight, which is guaranteed at a real
// quiescence point (an in-flight operation implies an outstanding unit).
func (d *wsDeque) empty() bool { return d.size() <= 0 }

// size is how many nodes the deque holds, as racy as empty.
func (d *wsDeque) size() int { return int(d.bottom.Load() - d.top.Load()) }

// ---- async run state ----

// asyncWorker is one worker's scheduling state.
type asyncWorker struct {
	deque     *wsDeque
	processed atomic.Int64 // nodes visited (monitor + final stats)
	_         [48]byte     // a cache line per worker
}

// asyncRun is the scheduling state of one async exploration, on top of
// the shared engineRun (which holds the stop signal every loop here
// checks).
type asyncRun struct {
	run *engineRun

	workers []asyncWorker

	// outstanding counts published work units; see the file comment for
	// the discipline that makes zero imply termination.
	outstanding atomic.Int64
	steals      atomic.Int64
	scans       atomic.Int64

	stopped atomic.Bool // afterLevel requested an early stop
}

// runAsync is the async-order counterpart of runLevelSync. root is a
// fully keyed node (fingerprint and reduction applied) not yet in the
// store.
func runAsync(run *engineRun, root *Node) (RunStats, error) {
	a := &asyncRun{run: run}
	nw := run.opts.Workers
	a.workers = make([]asyncWorker, nw)
	for i := range a.workers {
		a.workers[i].deque = newWSDeque()
	}

	// Seed: the root is one published unit in worker 0's deque. (The mode
	// table lets async run over the in-memory store only, and of that it
	// uses the visited tables alone: nodes never queue in the store.)
	run.store.Claim(root.fp, nil)
	run.admitted.Store(1)
	if depth := run.claims.depth; depth != nil {
		depth[root.fp] = 0
	}
	a.outstanding.Store(1)
	a.workers[0].deque.push(root)

	var monWG sync.WaitGroup
	if run.opts.Progress != nil || run.afterLevel != nil {
		monWG.Add(1)
		go func() {
			defer monWG.Done()
			a.monitorLoop()
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a.workerLoop(w)
		}(w)
	}
	wg.Wait()
	run.finish() // covers error/cancel exits; quiescence already called it
	monWG.Wait()

	stats := RunStats{Processed: a.processed()}
	stats.Async = AsyncStats{Order: OrderAsync, Steals: a.steals.Load(), QuiescenceScans: a.scans.Load()}
	if err := run.err(); err != nil {
		return stats, err
	}
	stats.Complete = !run.truncated.Load()
	if run.limits.MaxDepth > 0 && !a.stopped.Load() {
		// The workers have exited; the depth maps now hold every state's
		// true BFS depth (relaxation ran to fixpoint). A state sitting at
		// the cap was visited but not expanded — the space extends beyond
		// the cap, exactly the level engine's incompleteness condition.
		for _, d := range run.claims.depth {
			if d >= run.limits.MaxDepth {
				stats.Complete = false
				break
			}
		}
	}
	if run.opts.Progress != nil {
		run.opts.Progress(Progress{Order: OrderAsync, Depth: -1, Processed: stats.Processed,
			Admitted: int(run.admitted.Load()), Elapsed: time.Since(run.began)})
	}
	return stats, nil
}

// processed sums the workers' visit counts.
func (a *asyncRun) processed() int {
	n := 0
	for i := range a.workers {
		n += int(a.workers[i].processed.Load())
	}
	return n
}

// monitorLoop periodically reports progress and polls afterLevel (async
// has no barriers, so both run on wall-clock ticks; afterLevel receives
// depth -1 and the cumulative processed count, serialized as ever).
func (a *asyncRun) monitorLoop() {
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-a.run.done:
			return
		case <-tick.C:
			processed := a.processed()
			if a.run.afterLevel != nil && a.run.afterLevel(-1, processed) {
				a.stopped.Store(true)
				a.run.finish()
				return
			}
			if a.run.opts.Progress != nil {
				a.run.opts.Progress(Progress{Order: OrderAsync, Depth: -1, Processed: processed,
					Admitted: int(a.run.admitted.Load()), Elapsed: time.Since(a.run.began)})
			}
		}
	}
}

// workerLoop is one worker: take a chunk (pop, else steal), visit and
// expand it, count and push what it admitted, and — when everything is
// idle — quiescence detection.
func (a *asyncRun) workerLoop(w int) {
	run := a.run
	wk := &a.workers[w]
	x := run.expander(w)
	locked := len(a.workers) > 1
	chunk := make([]*Node, asyncChunk)
	var steals int64

	idleSpins := 0
	for !run.doneFlag.Load() {
		m := a.take(wk, w, chunk, &steals)
		if m == 0 {
			if a.outstanding.Load() == 0 {
				// First scan saw zero: run the validating sweep, then re-read.
				a.scans.Add(1)
				if a.confirmQuiesce() {
					run.finish()
					break
				}
				continue
			}
			if idleSpins < 4 {
				idleSpins++
				runtime.Gosched()
				continue
			}
			// Re-sweep shortly: work may sit in a deque whose steals keep
			// losing CAS races, or be on its way into one.
			time.Sleep(100 * time.Microsecond)
			continue
		}
		idleSpins = 0

		// Visit the fresh nodes and plan every node's successors, unless it
		// sits at a cap.
		x.begin()
		visited := int64(0)
		for _, n := range chunk[:m] {
			if run.doneFlag.Load() {
				break
			}
			var err error
			if !n.reexpand {
				if err = run.visit(w, n); err == nil {
					visited++
				}
			}
			if err == nil {
				err = x.plan(n)
			}
			if err != nil {
				run.fail(err) // the run is over; its accounting is moot
				break
			}
		}
		wk.processed.Add(visited)
		// Retire the chunk's units and publish its admissions in one move,
		// before the first of them becomes stealable.
		out := x.commit(locked)
		a.outstanding.Add(int64(len(out) - m))
		for _, nn := range out {
			wk.deque.push(nn)
		}
		for _, n := range chunk[:m] {
			run.recycleAlways(n)
		}
	}
	if steals > 0 {
		a.steals.Add(steals)
	}
}

// take fills buf with the worker's next chunk and returns its size: up to
// half of its own deque (the rest stays stealable), else one node stolen
// from another worker's.
func (a *asyncRun) take(wk *asyncWorker, w int, buf []*Node, steals *int64) int {
	want := min(len(buf), (wk.deque.size()+1)/2)
	m := 0
	for m < max(want, 1) {
		n := wk.deque.pop()
		if n == nil {
			break
		}
		buf[m] = n
		m++
	}
	if m > 0 {
		return m
	}
	if hook := asyncStallHook; hook != nil {
		hook(w)
	}
	for i := 1; i < len(a.workers); i++ {
		v := &a.workers[(w+i)%len(a.workers)]
		for {
			n, retry := v.deque.steal()
			if n != nil {
				*steals++
				buf[0] = n
				return 1
			}
			if !retry {
				break
			}
		}
	}
	return 0
}

// confirmQuiesce is the validating second scan of termination detection:
// having read outstanding == 0, sweep every deque and re-read. Under the
// counting discipline the counter alone is already sound (see the file
// comment); the sweep guards the accounting itself, turning a hypothetical
// under-count bug into a hang-with-evidence instead of a silent partial
// result.
func (a *asyncRun) confirmQuiesce() bool {
	for i := range a.workers {
		if !a.workers[i].deque.empty() {
			return false
		}
	}
	return a.outstanding.Load() == 0
}
