package check

import (
	"bytes"
	"fmt"
	"slices"
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
//     one keying decision (under exact keys the successor's ref tuple,
//     written to chunk scratch). What it leaves behind is a candidate —
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
//   - commit then builds a node (model.Stepper.Install: the parent's slot
//     refs with the two the step touched replaced) for each candidate the
//     claim reported new, and returns them. A duplicate never had one.
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
	keyOff  int32 // the exact key's tuple starts at expander.keys[keyOff] (exact-key runs)
	verdict uint8
}

// expander is one worker's expansion state. Like the stepper it wraps,
// an instance serves one goroutine; it persists across levels so the
// transition memo and chunk scratch stay warm.
type expander struct {
	run    *engineRun
	worker int
	st     *model.Stepper
	sw     *symWorker // nil unless the symmetry quotient is active
	enc    []byte     // encoding scratch (exact-key frontier checksums)
	// cur is the view of the node being visited, over cfg, the scratch
	// its configuration is materialised into if the visitor asks.
	cur View
	cfg model.Config
	tmp *Node  // a successor on its way to another peer (distributed runs)
	rec []byte // tmp's node record
	// visited counts the nodes this worker has visited (engineRun.processed).
	visited atomic.Int64

	// The chunk under expansion: the planned nodes (and, in a provenance
	// run under exact keys, each one's key's index in the level's parent
	// arena once a claim has copied it there), their candidates in
	// generation order, the candidates' ref tuples under exact keys, and
	// what commit derives from them (the candidates to build, the nodes
	// built).
	parents   []*Node
	parentAts []uint32
	cands     []cand
	keys      []uint32
	fresh     []int32
	out       []*Node

	// The replay's stack (replaySource): stack[d] is the node d steps
	// along prefix, the path it was last replayed to. The nodes are the
	// worker's own, rewritten in place, and kept from chunk to chunk.
	stack  []*Node
	prefix []byte
}

// expander returns worker's expander, creating it on first use. Its
// stepper memoizes on refs into the run's dictionary, which matches
// encodings byte for byte, so exact-key runs use the same stepper: no
// hash shortcut can substitute a wrong configuration.
func (r *engineRun) expander(worker int) *expander {
	x := r.expanders[worker]
	if x == nil {
		x = &expander{run: r, worker: worker, st: model.NewStepperOn(r.p, r.dict),
			cfg: model.Config{Objects: make([]model.Value, r.nObj), States: make([]model.State, r.nProc)}}
		r.expanders[worker] = x
	}
	if x.sw == nil && len(r.symClasses) > 0 {
		// Checked on every call, not only at creation: worker 0's expander
		// hashes the root before the reduction plan (refined against the
		// root's slot hashes) exists.
		x.sw = newSymWorker(r.dict, r.symClasses, r.nObj, r.nProc)
	}
	return x
}

// key sets n's dedup fingerprint from its slot fingerprint: the
// orbit-canonical fingerprint under an active symmetry quotient, the plain
// slot fingerprint otherwise (an exact key is the node's refs, which it
// has). Only nodes without a planned step come here (the root, a node
// replayed from a checkpoint; the spill store records the fingerprint):
// plan keys every successor, to the same identity, before it exists.
func (x *expander) key(n *Node) {
	n.fp = n.slotFP
	if x.sw != nil {
		x.sw.load(n.slotFP, n.refs)
		x.sw.statesPruned += x.sw.unsorted
		n.fp = x.sw.fp
	}
}

// frontierMix is n's term in a checkpoint's frontier checksum
// (checkpoint.go): under exact keys its encoding is folded in, which the
// expander lays out from the dictionary.
func (x *expander) frontierMix(n *Node) uint64 {
	var enc []byte
	if x.run.opts.StringKeys {
		x.enc = x.run.dict.AppendEncoding(x.enc[:0], n.refs)
		enc = x.enc
	}
	return frontierMix(n.fp, enc)
}

// view is the visitor's view of n: valid until the next call.
func (x *expander) view(n *Node) *View {
	x.cur = View{dict: x.run.dict, refs: n.refs, nObj: x.run.nObj, cfg: &x.cfg}
	return &x.cur
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
	x.parents, x.parentAts, x.cands, x.keys = x.parents[:0], x.parentAts[:0], x.cands[:0], x.keys[:0]
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
	x.parents, x.parentAts = append(x.parents, n), append(x.parentAts, noParentKey)
	if x.sw != nil {
		x.sw.load(n.slotFP, n.refs)
	}
	for pid := 0; pid < r.nProc; pid++ {
		if !r.allowed[pid] {
			continue
		}
		x.cands = append(x.cands, cand{parent: parent, pid: int32(pid)})
		c := &x.cands[len(x.cands)-1]
		ok, err := x.st.Plan(n.refs, pid, &c.step)
		if !ok { // pid has decided (no step), or the protocol is broken
			x.cands = x.cands[:len(x.cands)-1]
			if err != nil {
				return fmt.Errorf("frontier engine: %w", err)
			}
			continue
		}
		c.fp = c.step.Fingerprint(n.slotFP)
		switch {
		case r.opts.StringKeys:
			off := len(x.keys)
			c.keyOff = int32(off)
			x.keys = slices.Grow(x.keys, len(n.refs))[:off+len(n.refs)]
			x.st.Install(n.refs, pid, &c.step, x.keys[off:])
		case x.sw != nil:
			c.fp = x.sw.successor(pid, &c.step)
		}
		if r.link != nil && !r.link.Owns(c.fp) {
			// The owning peer claims it exactly as a local partition would.
			// It gets the node's record, so one scratch node serves them all.
			if x.tmp == nil {
				x.tmp = r.newNode(x.worker)
			}
			x.build(c, x.tmp)
			x.cands = x.cands[:len(x.cands)-1]
			x.rec = appendNodeRecord(x.rec[:0], x.tmp, r.dict, r.opts.StringKeys)
			if err := r.link.Send(x.worker, c.fp, x.rec); err != nil {
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
		if x.claim(c, x.candKey(c)) != candDup {
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
		n := r.newNode(x.worker)
		x.build(c, n)
		x.out = append(x.out, n)
	}
	return x.out
}

// candKey is c's exact key, a view of the chunk scratch, or "" outside
// exact-key runs.
func (x *expander) candKey(c *cand) string {
	if !x.run.opts.StringKeys {
		return ""
	}
	return tupleKey(x.keys[c.keyOff : int(c.keyOff)+x.run.nObj+x.run.nProc])
}

// claimant is the claim of the chunk's parent i by pid. Under exact keys
// the parent's key is copied out of the node (which is recycled once its
// chunk is done) into the level's parent arena the first time a claim
// needs it. The caller holds the claim lock whenever another goroutine
// could be claiming.
func (x *expander) claimant(i, pid int32) claimant {
	a := x.parents[i]
	if x.run.opts.StringKeys && x.parentAts[i] == noParentKey {
		_, x.parentAts[i] = x.run.claims.parentKeys.add(tupleKey(a.refs))
	}
	return claimant{parentFP: a.fp, parentAt: x.parentAts[i], pid: pid}
}

// parent is the entry c is credited to.
func (cl *claimState) parent(c claimant) entry {
	if c.parentAt == noParentKey {
		return entry{c.parentFP, ""}
	}
	return entry{c.parentFP, cl.parentKeys.key(c.parentAt)}
}

// claim applies the admission protocol to a candidate, wherever it lives (a
// record another peer sent is claimed before it has a parent, a step or a
// node): the store's claim on its (fingerprint, key) — the one visited-set
// probe — and the same-level folds. key may be a view of scratch. The
// caller holds the claim lock whenever another goroutine could be
// claiming.
func (x *expander) claim(c *cand, key string) uint8 {
	r := x.run
	cl := &r.claims
	at, added := r.store.Claim(c.fp, key)
	if added && r.bound.on && !r.bound.admit(c.fp) {
		// Claimed, but past the closing level's cut: never built, so no
		// claim.
		if r.opts.Provenance {
			cl.claims = append(cl.claims, claimant{pid: -1})
		}
		c.verdict = candDup
		return candDup
	}
	if added {
		c.verdict = candNew
		if r.opts.Provenance {
			cl.claims = append(cl.claims, x.claimant(c.parent, c.pid))
		}
		if cl.depth != nil {
			cl.depth[c.fp] = x.parents[c.parent].Depth + 1
		}
		return candNew
	}
	c.verdict = candDup
	if r.opts.Provenance && at >= cl.base {
		x.reclaim(c, at)
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
// the delta's entry at, which this very level admitted (at ≥ base): c
// takes its provenance when c is deterministically smaller than the claim
// credited so far — by the parent's entry (fingerprint, then encoding),
// then pid — so witness schedules do not depend on discovery order. (Keys
// are empty, and so equal, outside exact-key runs.) The winner's path goes
// into overrides now, while its parent is live; the node gets it when it
// is taken.
func (x *expander) reclaim(c *cand, at uint32) {
	cl := &x.run.claims
	prev := &cl.claims[at-cl.base]
	if prev.pid < 0 {
		return
	}
	a := x.parents[c.parent]
	parent := entry{a.fp, x.run.store.ctx.nodeKey(a)}
	if d := entryCompare(x.run.dict, parent, cl.parent(*prev)); d > 0 || d == 0 && c.pid >= prev.pid {
		return
	}
	*prev = x.claimant(c.parent, c.pid)
	cl.overrides.setPath(c.fp, x.run.store.delta.key(at), a.path, byte(c.pid))
}

// build writes candidate c's successor into n: its parent's refs with the
// step's two installed, and the depth/pid/path/key bookkeeping.
func (x *expander) build(c *cand, n *Node) {
	r := x.run
	p := x.parents[c.parent]
	x.st.Install(p.refs, int(c.pid), &c.step, n.refs)
	n.slotFP = c.step.Fingerprint(p.slotFP)
	n.Depth = p.Depth + 1
	n.reexpand = c.verdict == candDeepen
	n.Pid, n.fp = int(c.pid), c.fp
	if r.pathsOn {
		// Root-to-node pid path: the only protocol-independent
		// serialization of a node (configs are opaque; a resumed or
		// remote process replays the path through its own stepper).
		n.path = append(append(n.path[:0], p.path...), byte(c.pid))
	}
}

// replayStep writes pid's step from cur into succ — one link of a
// replayed path: a different job from expand (one path, no fan-out,
// nothing keyed). Failure means the path does not belong to this protocol
// (the checkpoint profile check guards the common cases; this is the
// backstop for a changed implementation).
func replayStep(st *model.Stepper, cur, succ *Node, pid byte) error {
	var s model.Step
	ok, err := st.Plan(cur.refs, int(pid), &s)
	if err == nil && !ok {
		err = fmt.Errorf("pid %d has no step at depth %d", pid, cur.Depth)
	}
	if err != nil {
		return fmt.Errorf("pid path does not replay (%v)", err)
	}
	st.Install(cur.refs, int(pid), &s, succ.refs)
	succ.slotFP = s.Fingerprint(cur.slotFP)
	succ.Depth = cur.Depth + 1
	succ.Pid = int(pid)
	return nil
}

// replayPath rebuilds a single node from worker w's supply by applying its
// root-to-node pid path from the start configuration on w's stepper (a
// distributed peer's fallback for a wire record it cannot rematerialize).
// The result is not keyed.
func replayPath(run *engineRun, w int, path []byte) (*Node, error) {
	st := run.expander(w).st
	cur := run.rootNode(w)
	for _, pid := range path {
		succ := run.newNode(w)
		err := replayStep(st, cur, succ, pid)
		run.recycle(w, cur)
		if err != nil {
			run.recycle(w, succ)
			return nil, err
		}
		cur = succ
	}
	cur.path = append(cur.path[:0], path...)
	return cur, nil
}

// replaySource is a resumed run's first level: the checkpoint's verified
// path arena, served as a FrontierSource. A worker takes the next chunk of
// paths, replays them on its own stepper and keys the nodes by the run's
// keying, so the level holds the nodes the lost process held, bit for bit;
// no more of it is ever built than the chunks in flight. The chunk is
// replayed in path order on the worker's stack of the nodes along the
// last path, so moving to the next path keeps the prefix the two share
// and applies only the steps beyond it: every distinct prefix in the
// chunk is applied once, and only a path's own node is a new one. The
// workers count and sum the nodes they build (frontierMix) for verify.
type replaySource struct {
	*ckptLoaded
	run    *engineRun
	cursor atomic.Int64
	nodes  atomic.Int64
	sum    atomic.Uint64
}

func (s *replaySource) Size() int { return len(s.paths) / s.man.NextDepth }

// Next replays the next len(buf) paths into buf on worker w's stepper. A
// path that does not replay fails the run.
func (s *replaySource) Next(w int, buf []*Node) int {
	hi := int(s.cursor.Add(int64(len(buf))))
	lo := hi - len(buf)
	if lo >= s.Size() {
		return 0
	}
	m, err := s.run.expander(w).replay(s, lo, min(hi, s.Size()), buf)
	if err != nil {
		s.run.fail(fmt.Errorf("checkpoint %s: %w; was the checkpoint written by a different protocol build?", s.dir, err))
	}
	return m
}

// verify checks, once the level is drained, that the replayed nodes are
// the ones the manifest counted and summed.
func (s *replaySource) verify() error {
	if n, sum := s.nodes.Load(), s.sum.Load(); n != s.man.FrontierNodes || sum != s.man.FrontierSum {
		return fmt.Errorf("checkpoint %s: the frontier replays to %d nodes summing to %#x, the manifest says %d summing to %#x; was the checkpoint written by a different protocol build?",
			s.dir, n, sum, s.man.FrontierNodes, s.man.FrontierSum)
	}
	return nil
}

// replay rebuilds paths [lo, hi) of s into buf, in path order. On an
// error the nodes built so far are left to the collector: the run is over.
func (x *expander) replay(s *replaySource, lo, hi int, buf []*Node) (int, error) {
	r, depth := x.run, s.man.NextDepth
	path := func(i int32) []byte { return s.paths[int(i)*depth : (int(i)+1)*depth] }
	order := make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int { return bytes.Compare(path(a), path(b)) })

	if len(x.stack) == 0 {
		x.stack = append(x.stack, r.rootNode(x.worker))
	}
	var sum uint64
	for m, i := range order {
		p := path(i)
		shared := 0
		for shared < len(x.prefix) && x.prefix[shared] == p[shared] {
			shared++
		}
		// Rebuild the prefix beyond what the two paths share, then step
		// to the path's own node, a fresh one.
		x.prefix = x.prefix[:shared]
		for d := shared; d < depth-1; d++ {
			if d+1 == len(x.stack) {
				x.stack = append(x.stack, r.newNode(x.worker))
			}
			if err := replayStep(x.st, x.stack[d], x.stack[d+1], p[d]); err != nil {
				return 0, err
			}
			x.prefix = append(x.prefix, p[d])
		}
		n := r.newNode(x.worker)
		if err := replayStep(x.st, x.stack[depth-1], n, p[depth-1]); err != nil {
			return 0, err
		}
		n.path = append(n.path[:0], p...)
		x.key(n) // the rebuilt node must carry the same fingerprint the lost one did
		sum += x.frontierMix(n)
		buf[m] = n
	}
	s.nodes.Add(int64(len(order)))
	s.sum.Add(sum)
	return len(order), nil
}
