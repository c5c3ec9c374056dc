package check

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/model"
)

// This file is the expansion core both exploration orders run on. An
// expander owns everything between "here is a node" and "here is a keyed
// successor": whether the node is expanded at all (visitOnly: not at the
// depth cap, and not once the run's admissions have closed), poised-pid
// iteration over the allowed set, sleep-mask skips, the arena-backed
// copy-on-write step, the depth/pid/parent/path bookkeeping, the run's
// one keying decision (also applied to the root and to replayed
// checkpoint nodes), the successor's sleep mask, and routing to the
// owning peer of a distributed run. What is left to the orders
// (levelsync.go, async.go) is scheduling: where nodes come from, when
// they are visited, and how a local successor is admitted.

// expander is one worker's expansion state. Like the stepper it wraps,
// an instance serves one goroutine; it persists across levels so the
// intern arena, transition memos and orbit memo stay warm.
type expander struct {
	run    *engineRun
	worker int
	st     *model.Stepper
	sw     *symWorker // nil unless the symmetry quotient is active
	objs   []int      // per-pid poised object (-1 = none); sleep mode only
	enc    []byte     // encoding scratch (exact keys)
	// penc is the node under expansion's exact key split at its slots
	// (exact-key runs only). It is rebuilt by one scan per expanded node
	// instead of stored per node: provenance runs retain every node.
	penc model.SlotEncoding

	sleepSkips int64
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
		if r.sleepOn {
			x.objs = make([]int, r.nProc)
		}
		r.expanders[worker] = x
	}
	if x.sw == nil && r.plan.active() {
		// Checked on every call, not only at creation: worker 0's expander
		// hashes the root before the reduction plan (refined against the
		// root's slot hashes) exists.
		x.sw = newSymWorker(r.plan, r.nObj)
	}
	return x
}

// key sets n's dedup identity from its slot fingerprint: the exact
// encoding in string-key mode, the orbit-canonical fingerprint under an
// active symmetry quotient, the plain slot fingerprint otherwise. In
// string-key mode only nodes without a keyed parent come here and are
// encoded in full (the root, a node replayed from a checkpoint; the spill
// store reloads a node's key with it): step splices every successor's
// key, the same bytes, from its parent's.
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

// expand generates n's successors, none if n is visit-only. In sleep mode
// n.sleep must hold the finished intersection the level barrier settled.
// Successors owned by another peer are shipped over the link; every other
// one is handed to emit, fully keyed. An error (an illegal poised
// operation, a lost link) stops the expansion; the caller fails the run.
func (x *expander) expand(n *Node, emit func(*Node)) error {
	r := x.run
	if r.visitOnly(n.Depth) {
		return nil
	}
	if r.opts.StringKeys {
		if err := x.penc.Set(n.key, r.nObj, r.nProc); err != nil {
			return fmt.Errorf("frontier engine: node key: %w", err)
		}
	}
	var mask uint64
	if r.sleepOn {
		// The poised-object vector feeds the commutation test below; both
		// it and the mask are memo-backed lookups.
		mask = n.sleep
		for pid := range x.objs {
			x.objs[pid] = -1
			if r.allowed[pid] {
				if obj, ok := x.st.PoisedObject(n.Cfg, pid, n.slotH[r.nObj+pid]); ok {
					x.objs[pid] = obj
				}
			}
		}
	}
	for pid := 0; pid < r.nProc; pid++ {
		if !r.allowed[pid] {
			continue
		}
		if mask&(uint64(1)<<uint(pid)) != 0 {
			// Asleep: every generator of this node agreed the step commutes
			// with its own last step, so the successor is exactly the state
			// the ascending-pid sibling order reaches.
			x.sleepSkips++
			continue
		}
		succ := r.newNode()
		ok, err := x.step(n, pid, succ)
		if err != nil {
			r.recycleAlways(succ)
			return fmt.Errorf("frontier engine: %w", err)
		}
		if !ok { // pid has decided; no step
			r.recycleAlways(succ)
			continue
		}
		succ.Depth = n.Depth + 1
		succ.Pid = pid
		succ.parent = nil
		if r.opts.Provenance {
			succ.parent = n
		}
		if r.pathsOn {
			// Root-to-node pid path: the only protocol-independent
			// serialization of a node (configs are opaque; a resumed or
			// remote process replays the path through its own stepper).
			succ.path = append(append(succ.path[:0], n.path...), byte(pid))
		}
		if r.sleepOn {
			// The successor sleeps every commuting smaller pid (its
			// interleaving is covered by the ascending order) and every
			// still-commuting pid it inherits from this node's sleep set.
			var m uint64
			for cand := (uint64(1)<<uint(pid) - 1) | mask; cand != 0; cand &= cand - 1 {
				q := bits.TrailingZeros64(cand)
				if r.allowed[q] && x.objs[q] >= 0 && x.objs[q] != x.objs[pid] {
					m |= 1 << uint(q)
				}
			}
			succ.sleep = m
		}
		if r.link != nil && !r.link.Owns(succ.fp) {
			// The owning peer dedups and (in sleep mode) intersects masks
			// exactly as a local partition owner would.
			err := r.link.Send(x.worker, succ)
			r.recycleAlways(succ)
			if err != nil {
				return err
			}
			continue
		}
		emit(succ)
	}
	return nil
}

// step applies pid's step from n into succ and keys succ; ok is false
// when pid has decided. In string-key mode n's key must be loaded in
// x.penc, and the successor's key is spliced from it.
func (x *expander) step(n *Node, pid int, succ *Node) (ok bool, err error) {
	if x.run.opts.StringKeys {
		succ.slotFP, x.enc, ok, err = x.st.ApplyKeyed(n.Cfg, n.slotFP, n.slotH, &x.penc, pid, succ.Cfg, succ.slotH, x.enc[:0])
		if ok {
			succ.fp, succ.key = succ.slotFP, string(x.enc)
		}
		return ok, err
	}
	succ.slotFP, ok, err = x.st.ApplyCOW(n.Cfg, n.slotFP, n.slotH, pid, succ.Cfg, succ.slotH)
	if ok {
		x.key(succ)
	}
	return ok, err
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
		run.recycleAlways(succ)
		return nil, fmt.Errorf("checkpoint: frontier path does not replay (%v); was the checkpoint written by a different protocol build?", err)
	}
	succ.slotFP = fp
	succ.Depth = cur.Depth + 1
	succ.Pid = int(pid)
	succ.parent = nil
	return succ, nil
}

// replayPath rebuilds a single node by applying its root-to-node pid path
// from the start configuration (a distributed peer's fallback for a wire
// record it cannot rematerialize). The result is not keyed.
func replayPath(run *engineRun, st *model.Stepper, path []byte) (*Node, error) {
	cur := run.rootNode(st)
	for _, pid := range path {
		succ, err := replayStep(run, st, cur, pid)
		run.recycleAlways(cur)
		if err != nil {
			return nil, err
		}
		cur = succ
	}
	cur.path = append(cur.path[:0], path...)
	return cur, nil
}

// replayFrontier rebuilds a checkpointed frontier: nodes[i] is the node
// recs[i] describes, keyed by the run's keying and carrying its sleep
// mask, so the resumed level is the one the lost process held, in its
// order. The records are walked in path order, where consecutive paths
// share their longest prefixes, and the order is cut into one contiguous
// chunk per worker, each replayed on that worker's own expander.
func replayFrontier(run *engineRun, recs []ckptFrontNode) ([]*Node, error) {
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return bytes.Compare(recs[a].path, recs[b].path) })

	nodes := make([]*Node, len(recs))
	nw := max(1, min(run.opts.Workers, len(recs)))
	errs := make([]error, nw)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chunk := order[w*len(order)/nw : (w+1)*len(order)/nw]
			errs[w] = run.expander(w).replayChunk(recs, chunk, nodes)
		}(w)
	}
	wg.Wait()
	return nodes, errors.Join(errs...)
}

// replayChunk rebuilds the records order lists, which must be in path
// order, into nodes (at each record's own index). It keeps the nodes
// along the current path on a stack — stack[d] is the configuration d
// steps in — so moving to the next record pops back to the prefix the two
// paths share and applies only the steps beyond it: every distinct prefix
// in the chunk is applied once.
func (x *expander) replayChunk(recs []ckptFrontNode, order []int, nodes []*Node) error {
	r := x.run
	// A node handed out as a record's result belongs to the frontier from
	// then on (kept); only the others go back to the pool when popped.
	type frame struct {
		n    *Node
		kept bool
	}
	stack := []frame{{n: r.rootNode(x.st)}}
	pop := func(to int) {
		for _, f := range stack[to:] {
			if !f.kept {
				r.recycleAlways(f.n)
			}
		}
		stack = stack[:to]
	}
	defer func() { pop(0) }()
	var prev []byte
	for i, idx := range order {
		path := recs[idx].path
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
		n.sleep = recs[idx].sleep
		nodes[idx] = n
		prev = path
	}
	return nil
}
