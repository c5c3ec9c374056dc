package check

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/model"
)

// This file is the expansion core both exploration orders run on: what
// lies between "here is a chunk of nodes" and "here are the nodes to queue".
// A worker's expander takes the chunk through three phases.
//
//   - plan keys every successor of a node without building it: whether the
//     node is expanded at all (visitOnly: not at the depth cap, and not once
//     the run's admissions have closed), poised-pid iteration over the
//     allowed set, the memoised transition (model.Stepper.Plan), the run's
//     one keying decision. What it leaves behind is a candidate —
//     (fingerprint, key, parent, pid) and the transition by value — except
//     for a successor another peer of a distributed run owns, which is
//     built into a scratch node and shipped at once.
//
//   - commit claims the chunk's candidates in the visited set, in
//     generation order, under one hold of the run's claim lock; the
//     same-level folds (the provenance tie-break, async's depth
//     relaxation) are part of the claim. A level or run drained by one
//     worker takes no lock.
//
//   - commit then builds a node (model.Stepper.Install) for each candidate
//     the claim reported new, and returns them. A duplicate never had one.
//
// The loop around the phases is one for both orders (engineRun.workerLoop);
// what is left to the orders (levelsync.go, async.go) is where chunks come
// from and where the admitted successors wait (the store's next-level
// queues, or the worker's deque).

// A candidate's claim verdict.
const (
	candDup    = iota // already visited: nothing to build
	candNew           // admitted
	candDeepen        // visited, now reached at a smaller depth (async MaxDepth runs)
)

// cand is one keyed successor of the chunk under expansion.
type cand struct {
	step    model.Step
	fp      uint64 // dedup fingerprint (slot fp, or orbit-canonical under "sym")
	parent  int32  // index into expander.parents
	pid     int32
	keyOff  int32 // the exact key is expander.keys[keyOff:keyOff+keyLen] (exact-key runs)
	keyLen  int32
	verdict uint8
	key     string // the admitted exact key, as the store holds it
}

// expander is one worker's expansion state. Like the stepper it wraps,
// an instance serves one goroutine; it persists across levels so the
// intern arena, transition memos, orbit memo and chunk scratch stay warm.
type expander struct {
	run    *engineRun
	worker int
	st     *model.Stepper
	sw     *symWorker // nil unless the symmetry quotient is active
	hbuf   []uint64   // the planned node's slot hashes, patched per successor (sym only)
	enc    []byte     // encoding scratch (exact keys)
	// penc is the node under expansion's exact key split at its slots
	// (exact-key runs only). It is rebuilt by one scan per expanded node
	// instead of stored per node.
	penc model.SlotEncoding
	tmp  *Node // a successor on its way to another peer (distributed runs)
	// visited counts the nodes this worker has visited (engineRun.processed).
	visited atomic.Int64

	// The chunk under expansion: the planned nodes, their candidates in
	// generation order, the candidates' exact keys, and what commit derives
	// from them (the candidates to build, the nodes built).
	parents []*Node
	cands   []cand
	keys    []byte
	fresh   []int32
	out     []*Node
}

// expander returns worker's expander, creating it on first use. Exact-key
// runs use exact steppers: their guarantee is that no hash shortcut can
// substitute a wrong configuration, so what those memoize, they memoize
// on the encodings themselves.
func (r *engineRun) expander(worker int) *expander {
	x := r.expanders[worker]
	if x == nil {
		x = &expander{run: r, worker: worker}
		if r.opts.StringKeys {
			x.st = model.NewStepperExact(r.p)
		} else {
			x.st = model.NewStepper(r.p)
		}
		r.expanders[worker] = x
	}
	if x.sw == nil && r.plan.active() {
		// Checked on every call, not only at creation: worker 0's expander
		// hashes the root before the reduction plan (refined against the
		// root's slot hashes) exists.
		x.sw = newSymWorker(r.plan, r.nObj)
		x.hbuf = make([]uint64, r.nObj+r.nProc)
	}
	return x
}

// key sets n's dedup identity from its slot fingerprint: the exact
// encoding in string-key mode, the orbit-canonical fingerprint under an
// active symmetry quotient, the plain slot fingerprint otherwise. Only
// nodes without a planned step come here (the root, a node replayed from a
// checkpoint; the spill store reloads a node's key with it): plan keys
// every successor, to the same identity, before it exists.
func (x *expander) key(n *Node) {
	n.fp = n.slotFP
	switch {
	case x.run.opts.StringKeys:
		x.enc = n.Cfg.AppendEncoding(x.enc[:0])
		n.key = string(x.enc)
	case x.sw != nil:
		n.fp = x.sw.canonFP(n.slotFP, n.slotH)
	}
}

// visitOnly reports whether a node at depth is visited but not expanded,
// which is the case under two rules, both the expansion core's: the node
// sits at the MaxDepth cap, or the run's admissions have closed. A closed
// run rejects every candidate for good — the budget is spent and the
// space is already marked truncated — so stepping the node could only
// produce successors to throw away. The level after the closing barrier
// (levelsync), everything still queued when the budget overflows (async),
// a distributed peer told to close and a run resumed from a snapshot
// taken after the close all come through here.
func (r *engineRun) visitOnly(depth int) bool {
	return (r.limits.MaxDepth > 0 && depth >= r.limits.MaxDepth) || r.closed.Load()
}

// begin starts a new chunk.
func (x *expander) begin() {
	x.parents, x.cands, x.keys = x.parents[:0], x.cands[:0], x.keys[:0]
}

// plan keys n's successors into the chunk, none if n is visit-only. n must
// stay untouched until commit has run: a candidate is its parent plus a
// transition. Successors owned by another peer are shipped over the link
// here. An error (an illegal poised operation, a lost link)
// stops the expansion; the caller fails the run.
func (x *expander) plan(n *Node) error {
	r := x.run
	if r.visitOnly(n.Depth) {
		return nil
	}
	parent := int32(len(x.parents))
	x.parents = append(x.parents, n)
	var penc *model.SlotEncoding
	if r.opts.StringKeys {
		if err := x.penc.Set(n.key, r.nObj, r.nProc); err != nil {
			return fmt.Errorf("frontier engine: node key: %w", err)
		}
		penc = &x.penc
	}
	if x.sw != nil {
		copy(x.hbuf, n.slotH)
	}
	for pid := 0; pid < r.nProc; pid++ {
		if !r.allowed[pid] {
			continue
		}
		x.cands = append(x.cands, cand{parent: parent, pid: int32(pid)})
		c := &x.cands[len(x.cands)-1]
		ok, err := x.st.Plan(n.Cfg, n.slotH, pid, penc, &c.step)
		if !ok { // pid has decided (no step), or the protocol is broken
			x.cands = x.cands[:len(x.cands)-1]
			if err != nil {
				return fmt.Errorf("frontier engine: %w", err)
			}
			continue
		}
		c.fp = c.step.Fingerprint(n.slotFP)
		switch {
		case penc != nil:
			c.keyOff = int32(len(x.keys))
			x.keys = x.st.AppendKey(x.keys, penc, pid, &c.step)
			c.keyLen = int32(len(x.keys)) - c.keyOff
		case x.sw != nil:
			// The successor's slot hashes are the parent's with the two
			// touched ones replaced; patch them in, canonicalise, restore.
			obj := x.st.PatchHashes(x.hbuf, pid, &c.step)
			c.fp = x.sw.canonFP(c.fp, x.hbuf)
			x.hbuf[obj], x.hbuf[r.nObj+pid] = n.slotH[obj], n.slotH[r.nObj+pid]
		}
		if r.link != nil && !r.link.Owns(c.fp) {
			// The owning peer claims it exactly as a local partition would.
			// The link serialises the node before it returns, so one
			// scratch node serves them all.
			if x.tmp == nil {
				x.tmp = r.newNode()
			}
			x.build(c, x.tmp)
			x.cands = x.cands[:len(x.cands)-1]
			if err := r.link.Send(x.worker, x.tmp); err != nil {
				return err
			}
		}
	}
	return nil
}

// commit claims the chunk's candidates and returns a node for each one
// the visited set admitted (and for each depth relaxation), in claim order;
// the slice is the expander's and valid until its next commit. locked says
// other workers may be claiming too. The admission counter moves once, by
// the chunk's admissions; under the async order, whose budget is
// admit-then-check, an overflow rolls the counter back to MaxConfigs,
// closes admissions and drops the overflowing claims (their table entries
// stay, phantoms that can only suppress states a closed run rejects
// anyway).
func (x *expander) commit(locked bool) []*Node {
	r := x.run
	x.fresh, x.out = x.fresh[:0], x.out[:0]
	if len(x.cands) == 0 || r.closed.Load() {
		return x.out
	}
	if locked {
		r.claims.mu.Lock()
	}
	for i := range x.cands {
		c := &x.cands[i]
		if x.claim(c, x.keys[c.keyOff:c.keyOff+c.keyLen]) != candDup {
			x.fresh = append(x.fresh, int32(i))
		}
	}
	if locked {
		r.claims.mu.Unlock()
	}
	admitted := 0
	for _, i := range x.fresh {
		if x.cands[i].verdict == candNew {
			admitted++
		}
	}
	if over := r.admitted.Add(int64(admitted)) - int64(r.limits.MaxConfigs); r.asyncOn && over > 0 {
		over = min(over, int64(admitted))
		r.admitted.Add(-over)
		r.closed.Store(true)
		r.truncated.Store(true)
		for k := len(x.fresh) - 1; over > 0; k-- {
			if c := &x.cands[x.fresh[k]]; c.verdict == candNew {
				c.verdict = candDup
				over--
			}
		}
	}
	for _, i := range x.fresh {
		c := &x.cands[i]
		if c.verdict == candDup {
			continue
		}
		n := r.newNode()
		x.build(c, n)
		x.out = append(x.out, n)
	}
	return x.out
}

// claim applies the admission protocol to a candidate, wherever it lives (a
// record another peer sent is claimed before it has a parent, a step or a
// node): the store's claim on its (fingerprint, key) — the one visited-set
// probe — and the same-level folds. The caller holds the claim lock
// whenever another goroutine could be claiming.
func (x *expander) claim(c *cand, key []byte) uint8 {
	r := x.run
	cl := &r.claims
	stored, added := r.store.Claim(c.fp, key)
	if added {
		c.verdict, c.key = candNew, stored
		if cl.pending != nil {
			a := x.parents[c.parent]
			credit := claimant{key: stored, parent: entry{a.fp, a.key}, pid: c.pid}
			if prev, ok := cl.pending[c.fp]; ok && prev.key != stored {
				cl.pendingExact[stored] = credit
			} else {
				cl.pending[c.fp] = credit
			}
		}
		if cl.depth != nil {
			cl.depth[c.fp] = x.parents[c.parent].Depth + 1
		}
		return candNew
	}
	c.verdict = candDup
	if cl.pending != nil {
		x.reclaim(c, key)
	}
	if cl.depth != nil {
		// Without a barrier a duplicate can still owe work under a MaxDepth
		// cap: a smaller depth re-relaxes the state.
		if d := x.parents[c.parent].Depth + 1; d < cl.depth[c.fp] {
			cl.depth[c.fp] = d
			c.verdict = candDeepen
		}
	}
	return c.verdict
}

// reclaim is a provenance run's same-level fold for a duplicate claim c of
// an entry (c.fp, key): if the configuration was admitted this very level,
// c takes its provenance when c is deterministically smaller than the claim
// credited so far — by the parent's (fingerprint, key), then pid — so
// witness schedules do not depend on discovery order. (Keys are empty, and
// so equal, outside exact-key runs.) The winner's path goes into overrides
// now, while its parent is live; the node gets it when it is taken.
func (x *expander) reclaim(c *cand, key []byte) {
	cl := &x.run.claims
	prev, ok := cl.pending[c.fp]
	exact := ok && prev.key != string(key)
	if exact {
		prev, ok = cl.pendingExact[string(key)]
	}
	if !ok {
		return
	}
	a := x.parents[c.parent]
	parent := entry{a.fp, a.key}
	if d := entryCompare(parent, prev.parent); d > 0 || d == 0 && c.pid >= prev.pid {
		return
	}
	prev.parent, prev.pid = parent, c.pid
	if exact {
		cl.pendingExact[prev.key] = prev
	} else {
		cl.pending[c.fp] = prev
	}
	e := entry{c.fp, prev.key}
	cl.overrides[e] = append(append(cl.overrides[e][:0], a.path...), byte(c.pid))
}

// build writes candidate c's successor into n: the copy-on-write step from
// its parent, and the depth/pid/path/key bookkeeping.
func (x *expander) build(c *cand, n *Node) {
	r := x.run
	p := x.parents[c.parent]
	x.st.Install(p.Cfg, p.slotH, int(c.pid), &c.step, n.Cfg, n.slotH)
	n.slotFP = c.step.Fingerprint(p.slotFP)
	n.Depth = p.Depth + 1
	n.reexpand = c.verdict == candDeepen
	n.Pid, n.fp, n.key = int(c.pid), c.fp, c.key
	if r.pathsOn {
		// Root-to-node pid path: the only protocol-independent
		// serialization of a node (configs are opaque; a resumed or
		// remote process replays the path through its own stepper).
		n.path = append(append(n.path[:0], p.path...), byte(c.pid))
	}
}

// replayStep applies pid's step to cur and returns the successor — one
// link of a replayed path: a different job from expand (one path, no
// fan-out, nothing keyed). Failure means the path does not belong to this
// protocol (the checkpoint profile check guards the common cases; this is
// the backstop for a changed implementation).
func replayStep(run *engineRun, st *model.Stepper, cur *Node, pid byte) (*Node, error) {
	succ := run.newNode()
	fp, ok, err := st.ApplyCOW(cur.Cfg, cur.slotFP, cur.slotH, int(pid), succ.Cfg, succ.slotH)
	if err == nil && !ok {
		err = fmt.Errorf("pid %d has no step at depth %d", pid, cur.Depth)
	}
	if err != nil {
		run.recycle(succ)
		return nil, fmt.Errorf("checkpoint: frontier path does not replay (%v); was the checkpoint written by a different protocol build?", err)
	}
	succ.slotFP = fp
	succ.Depth = cur.Depth + 1
	succ.Pid = int(pid)
	return succ, nil
}

// replayPath rebuilds a single node by applying its root-to-node pid path
// from the start configuration (a distributed peer's fallback for a wire
// record it cannot rematerialize). The result is not keyed.
func replayPath(run *engineRun, st *model.Stepper, path []byte) (*Node, error) {
	cur := run.rootNode(st)
	for _, pid := range path {
		succ, err := replayStep(run, st, cur, pid)
		run.recycle(cur)
		if err != nil {
			return nil, err
		}
		cur = succ
	}
	cur.path = append(cur.path[:0], path...)
	return cur, nil
}

// replayFrontier rebuilds a checkpointed frontier: nodes[i] is the node at
// the end of pid path paths[i], keyed by the run's keying, so the resumed
// level is the one the lost process held, in its order. The paths are
// walked in path order, where consecutive paths share their longest
// prefixes, and the order is cut into one contiguous chunk per worker,
// each replayed on that worker's own expander.
func replayFrontier(run *engineRun, paths [][]byte) ([]*Node, error) {
	order := make([]int, len(paths))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return bytes.Compare(paths[a], paths[b]) })

	nodes := make([]*Node, len(paths))
	nw := max(1, min(run.opts.Workers, len(paths)))
	errs := make([]error, nw)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chunk := order[w*len(order)/nw : (w+1)*len(order)/nw]
			errs[w] = run.expander(w).replayChunk(paths, chunk, nodes)
		}(w)
	}
	wg.Wait()
	return nodes, errors.Join(errs...)
}

// replayChunk rebuilds the paths order lists, which must be in path
// order, into nodes (at each path's own index). It keeps the nodes
// along the current path on a stack — stack[d] is the configuration d
// steps in — so moving to the next path pops back to the prefix the two
// paths share and applies only the steps beyond it: every distinct prefix
// in the chunk is applied once.
func (x *expander) replayChunk(paths [][]byte, order []int, nodes []*Node) error {
	r := x.run
	// A node handed out as a path's result belongs to the frontier from
	// then on (kept); only the others go back to the pool when popped.
	type frame struct {
		n    *Node
		kept bool
	}
	stack := []frame{{n: r.rootNode(x.st)}}
	pop := func(to int) {
		for _, f := range stack[to:] {
			if !f.kept {
				r.recycle(f.n)
			}
		}
		stack = stack[:to]
	}
	defer func() { pop(0) }()
	var prev []byte
	for i, idx := range order {
		path := paths[idx]
		shared := 0
		for shared < len(prev) && shared < len(path) && prev[shared] == path[shared] {
			shared++
		}
		if i > 0 && shared == len(path) {
			// Path order puts a path right after the one it repeats; its
			// node would enter the frontier twice.
			return fmt.Errorf("checkpoint: frontier path %v appears twice; was the checkpoint written by a different protocol build?", path)
		}
		pop(shared + 1)
		for _, pid := range path[shared:] {
			succ, err := replayStep(r, x.st, stack[len(stack)-1].n, pid)
			if err != nil {
				return err
			}
			stack = append(stack, frame{n: succ})
		}
		top := &stack[len(stack)-1]
		top.kept = true
		n := top.n
		n.path = append(n.path[:0], path...)
		x.key(n) // the rebuilt node must carry the same (fp, key) the lost one did
		nodes[idx] = n
		prev = path
	}
	return nil
}
