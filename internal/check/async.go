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
// shared expansion core (expand.go): successor generation, keying, sleep
// masks are the expander's; this file owns where
// nodes wait (deques, inboxes), how successors are admitted (continuously,
// with depth relaxation under a MaxDepth cap) and when the run is over
// (quiescence).
//
// Structure:
//
//   - Each worker owns a Chase-Lev work-stealing deque of admitted nodes.
//     The owner pushes and pops at the bottom; idle workers steal from the
//     top. There is no global frontier and no level edge: a worker expands
//     whatever is nearest (LIFO at the owner, FIFO for thieves), so the
//     search order is a depth-leaning interleaving that depends on thread
//     timing — deliberately. Verdicts do not: the visited SET is the same
//     as the level-synchronized engine's (the differential suite in
//     async_test.go pins this per protocol, unreduced and under "sym").
//
//   - Successors still route to single-owner dedup partitions over the
//     same batched MPSC channels the level loop uses, so no visited
//     table is ever touched by two goroutines. Owners drain
//     continuously: an admitted node is pushed straight back to the
//     admitting worker's inbox (and from there to its deque) instead of
//     parking in a next-level queue.
//
//   - Termination is counter-based distributed quiescence detection. A
//     global outstanding-work counter tracks published units of work
//     (nodes in deques, inboxes and in-flight batches); each worker keeps
//     a signed local delta (+1 per buffered successor, −1 per finished
//     expansion) that is flushed ONLY together with a batch send, or when
//     the worker goes idle after flushing its partial batches. Under that
//     discipline the counter never under-counts live work: a worker that
//     is mid-expansion, or holding buffered successors, also holds its
//     current node's unflushed −1, which keeps the counter positive. So
//     outstanding == 0 is a stable property that already implies
//     termination; the double-scan (read zero → sweep every deque and
//     inbox for emptiness → re-read zero) is validation against
//     accounting bugs, and each attempt is counted in
//     AsyncStats.QuiescenceScans.
//
//   - MaxConfigs uses admit-then-check: the owner inserts into its
//     visited table, increments the shared counter, and on overflow rolls
//     the counter back, closes admissions and drops the node (the table
//     keeps a phantom entry, which can only suppress states that would have
//     been rejected anyway). Runs whose space fits the budget can never
//     spuriously truncate, so exact differential comparisons hold; when
//     truncation does fire, WHICH states survive is timing-dependent
//     (unlike the level engine's sorted-fingerprint cutoff) and the run
//     is marked incomplete either way. What is still queued at the close
//     is visited and not expanded — the expansion core's rule for a
//     closed run (engineRun.visitOnly), the one the level engine's last
//     level follows.
//
//   - MaxDepth is supported exactly by depth re-relaxation: owners track
//     the best-known depth per fingerprint, and a duplicate arriving via
//     a shorter path re-enqueues the state as a "deepen" item that is
//     re-expanded (not re-visited) at the improved depth. Depths per
//     state strictly decrease, so relaxation terminates, and on
//     completion every state's recorded depth is its true BFS depth —
//     the visited set equals the level engine's {minDepth <= cap} set,
//     and Complete is computed from the final depth map.
//
// What async gives up: provenance (witness schedules need the
// deterministic level order), exact string keys (admission order would
// pick timing-dependent representatives among colliding encodings),
// sleep sets (their masks are settled at the level barrier), the spill
// store (the frontier lives in the deques, so a store budget bounds
// nothing) and distribution (the admit-then-check budget below is one
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
func (d *wsDeque) empty() bool { return d.bottom.Load() <= d.top.Load() }

// ---- async run state ----

// asyncWorker is one worker's scheduling state: its deque, its inbox (the
// MPSC slice its partition owners push admitted work into) and its ready
// signal.
type asyncWorker struct {
	deque *wsDeque

	inboxMu sync.Mutex
	inbox   []*Node
	spare   []*Node // double buffer: last drained inbox slice, reused

	ready     chan struct{} // cap 1; owners signal after an inbox push
	processed atomic.Int64  // nodes visited (monitor + final stats)
}

// asyncOwner is one dedup partition's continuous-admission state. Like
// the level engine's dedupOwner, the partition's visited table and the
// depth map are touched only by the one owner goroutine, so no locking:
// fingerprint routing pins each state to exactly one partition for the
// whole run.
type asyncOwner struct {
	visited *fpSet // the partition's table in the run's in-memory store
	ch      chan asyncBatch
	kept    []*Node // per-batch admitted scratch, reused

	// depth is the best-known depth per state (MaxDepth runs only); a
	// strictly smaller duplicate re-enqueues the state as a deepen item.
	depth map[uint64]int
}

// asyncBatch is one worker's successor batch to one partition owner; from
// is the admitting worker, whose inbox receives the admitted survivors.
type asyncBatch struct {
	from  int
	nodes []*Node
}

// asyncRun is the scheduling state of one async exploration, on top of
// the shared engineRun (which holds the stop signal every loop here
// selects on).
type asyncRun struct {
	run *engineRun

	workers []*asyncWorker
	owners  []*asyncOwner

	// outstanding counts published work units; see the file comment for
	// the flush discipline that makes zero imply termination.
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
	// The mode table lets async run over the in-memory store only, and of
	// that it uses the visited tables alone: admission is an insert into
	// the owner's table, and nodes never queue in the store.
	visited := run.store.(*memStore).parts

	nw := run.opts.Workers
	a.workers = make([]*asyncWorker, nw)
	for i := range a.workers {
		a.workers[i] = &asyncWorker{deque: newWSDeque(), ready: make(chan struct{}, 1)}
	}
	a.owners = make([]*asyncOwner, run.ownerMask+1)
	for i := range a.owners {
		o := &asyncOwner{visited: visited[i].set.fps, ch: make(chan asyncBatch, 2*nw)}
		if run.limits.MaxDepth > 0 {
			o.depth = map[uint64]int{}
		}
		a.owners[i] = o
	}

	// Seed: the root is one published unit in worker 0's deque.
	o := a.owners[root.fp&run.ownerMask]
	o.visited.Add(root.fp)
	run.admitted.Store(1)
	if o.depth != nil {
		o.depth[root.fp] = 0
	}
	a.outstanding.Store(1)
	a.workers[0].deque.push(root)

	var ownerWG sync.WaitGroup
	for _, o := range a.owners {
		ownerWG.Add(1)
		go func(o *asyncOwner) {
			defer ownerWG.Done()
			a.ownerLoop(o)
		}(o)
	}
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
	ownerWG.Wait()
	monWG.Wait()

	stats := RunStats{}
	for _, wk := range a.workers {
		stats.Processed += int(wk.processed.Load())
	}
	stats.Async = AsyncStats{Order: OrderAsync, Steals: a.steals.Load(), QuiescenceScans: a.scans.Load()}
	if err := run.err(); err != nil {
		return stats, err
	}
	stats.Complete = !run.truncated.Load()
	if run.limits.MaxDepth > 0 && !a.stopped.Load() {
		// The owners have exited; their depth maps now hold every state's
		// true BFS depth (relaxation ran to fixpoint). A state sitting at
		// the cap was visited but not expanded — the space extends beyond
		// the cap, exactly the level engine's incompleteness condition.
		for _, o := range a.owners {
			for _, d := range o.depth {
				if d >= run.limits.MaxDepth {
					stats.Complete = false
					break
				}
			}
		}
	}
	if run.opts.Progress != nil {
		run.opts.Progress(Progress{Order: OrderAsync, Depth: -1, Processed: stats.Processed,
			Admitted: int(run.admitted.Load()), Elapsed: time.Since(run.began)})
	}
	return stats, nil
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
			processed := 0
			for _, wk := range a.workers {
				processed += int(wk.processed.Load())
			}
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

// ownerLoop drains one partition's admission channel until the run ends.
func (a *asyncRun) ownerLoop(o *asyncOwner) {
	for {
		select {
		case b := <-o.ch:
			a.admitBatch(o, b)
		case <-a.run.done:
			return
		}
	}
}

// admitBatch applies the dedup/admission protocol to one batch and hands
// the survivors back to the admitting worker. Unit accounting: survivors
// stay counted (they move batch -> inbox without touching the counter);
// rejects are decremented in one Add AFTER the inbox push, so the counter
// can over-count transiently but never under-count.
func (a *asyncRun) admitBatch(o *asyncOwner, b asyncBatch) {
	run := a.run
	o.kept = o.kept[:0]
	dead := int64(0)
	for _, nn := range b.nodes {
		if a.admitOne(o, nn) {
			o.kept = append(o.kept, nn)
		} else {
			dead++
		}
	}
	bn := b.nodes[:0]
	run.batchPool.Put(&bn)
	if len(o.kept) > 0 {
		wk := a.workers[b.from]
		wk.inboxMu.Lock()
		wk.inbox = append(wk.inbox, o.kept...)
		wk.inboxMu.Unlock()
		select {
		case wk.ready <- struct{}{}:
		default:
		}
	}
	if dead > 0 {
		a.outstanding.Add(-dead)
	}
}

// admitOne admits or deepens one candidate and reports whether it is
// still a unit of work. Runs on the partition owner's goroutine; the
// visited table and the depth map need no locks.
func (a *asyncRun) admitOne(o *asyncOwner, nn *Node) (keep bool) {
	run := a.run
	if run.closed.Load() {
		// Budget exhausted: async closes only on a proven overflow, so
		// truncated is already set; nothing left to record.
		run.recycleAlways(nn)
		return false
	}
	if o.visited.Add(nn.fp) {
		if v := run.admitted.Add(1); v > int64(run.limits.MaxConfigs) {
			// Admit-then-check: roll back, close, drop. The table keeps a
			// phantom entry for nn.fp — later duplicates of it would have
			// been rejected here anyway (admissions are closed for good).
			run.admitted.Add(-1)
			run.closed.Store(true)
			run.truncated.Store(true)
			run.recycleAlways(nn)
			return false
		}
		if o.depth != nil {
			o.depth[nn.fp] = nn.Depth
		}
		return true
	}
	// Duplicate. Without a barrier a duplicate can still owe work under a
	// MaxDepth cap: a smaller depth re-relaxes the state.
	if d, ok := o.depth[nn.fp]; ok && nn.Depth < d {
		o.depth[nn.fp] = nn.Depth
		nn.reexpand = true
		return true
	}
	run.recycleAlways(nn)
	return false
}

// workerLoop is one worker: pop/drain/steal, visit and expand, flush,
// and — when everything is idle — quiescence detection.
func (a *asyncRun) workerLoop(w int) {
	run := a.run
	wk := a.workers[w]
	x := run.expander(w)

	buckets := make([][]*Node, len(a.owners))
	var localDelta int64
	var steals int64

	// send publishes a batch: the flush rule requires the local delta to
	// ride along with (or before) every send, so buffered births are
	// counted no later than they become visible to an owner.
	send := func(oi int, b []*Node) {
		// deliver() already counted each buffered birth into localDelta, so
		// flushing the delta (births and deaths both) before the channel
		// send is exactly the discipline the file comment requires: the
		// batch's births hit the global counter no later than an owner can
		// see the batch.
		a.outstanding.Add(localDelta)
		localDelta = 0
		select {
		case a.owners[oi].ch <- asyncBatch{from: w, nodes: b}:
		case <-run.done:
			// Run is ending (error or early stop); accounting is moot.
		}
	}
	deliver := func(succ *Node) {
		oi := int(succ.fp & run.ownerMask)
		if buckets[oi] == nil {
			buckets[oi] = (*run.batchPool.Get().(*[]*Node))[:0]
		}
		buckets[oi] = append(buckets[oi], succ)
		localDelta++
		if len(buckets[oi]) == batchSize {
			b := buckets[oi]
			buckets[oi] = nil
			send(oi, b)
		}
	}
	flushAll := func() {
		for oi, b := range buckets {
			if len(b) > 0 {
				buckets[oi] = nil
				send(oi, b)
			}
		}
		if localDelta != 0 {
			a.outstanding.Add(localDelta)
			localDelta = 0
		}
	}

	// process visits a fresh node, expands it unless it sits at a cap,
	// and retires its unit of work.
	process := func(n *Node) {
		var err error
		if !n.reexpand {
			if err = run.visit(w, n); err == nil {
				wk.processed.Add(1)
			}
		}
		if err == nil {
			err = x.expand(n, deliver) // nothing, if n is visit-only
		}
		run.fail(err)
		localDelta--
		run.recycleAlways(n)
	}

	idleSpins := 0
	for !run.doneFlag.Load() {
		n := a.next(wk, w, &steals)
		if n != nil {
			idleSpins = 0
			process(n)
			continue
		}
		flushAll()
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
		select {
		case <-wk.ready:
		case <-run.done:
		case <-time.After(100 * time.Microsecond):
			// Periodic re-sweep: work may sit in a deque whose steals
			// keep losing CAS races, or in a stalled peer's inbox.
		}
	}
	if steals > 0 {
		a.steals.Add(steals)
	}
}

// next returns the worker's next node: own deque, then inbox drain (the
// remainder is pushed to the deque, i.e. admitted work lands back on the
// admitting worker's deque), then a steal sweep over the other workers.
func (a *asyncRun) next(wk *asyncWorker, w int, steals *int64) *Node {
	if n := wk.deque.pop(); n != nil {
		return n
	}
	wk.inboxMu.Lock()
	in := wk.inbox
	wk.inbox = wk.spare[:0]
	wk.spare = in
	wk.inboxMu.Unlock()
	if len(in) > 0 {
		for _, n := range in[1:] {
			wk.deque.push(n)
		}
		return in[0]
	}
	if hook := asyncStallHook; hook != nil {
		hook(w)
	}
	for i := 1; i < len(a.workers); i++ {
		v := a.workers[(w+i)%len(a.workers)]
		for {
			n, retry := v.deque.steal()
			if n != nil {
				*steals++
				return n
			}
			if !retry {
				break
			}
		}
	}
	return nil
}

// confirmQuiesce is the validating second scan of termination detection:
// having read outstanding == 0, sweep every deque and inbox and re-read.
// Under the flush discipline the counter alone is already sound (see the
// file comment); the sweep guards the accounting itself, turning a
// hypothetical under-count bug into a hang-with-evidence instead of a
// silent partial result.
func (a *asyncRun) confirmQuiesce() bool {
	for _, wk := range a.workers {
		if !wk.deque.empty() {
			return false
		}
		wk.inboxMu.Lock()
		n := len(wk.inbox)
		wk.inboxMu.Unlock()
		if n != 0 {
			return false
		}
	}
	return a.outstanding.Load() == 0
}
