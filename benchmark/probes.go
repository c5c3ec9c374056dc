package main

import (
	"time"

	"repro/internal/check"
	"repro/internal/lowerbound"
	"repro/internal/model"
)

// replaySteps is the length of the model-layer replay: 200k successor
// computations, the first ~50k nodes of the instance's BFS frontier.
func replaySteps(sc scale) int {
	if sc == smoke {
		return 200_000 / 50
	}
	return 200_000
}

// replayNode is one configuration of the replay with the slot hashes
// and fingerprint Stepper.ApplyCOW needs to step from it.
type replayNode struct {
	cfg   *model.Config
	fp    uint64
	slotH []uint64
}

// replay walks the instance's state space breadth-first through
// Stepper.ApplyCOW alone, with no engine around it, for steps successor
// computations. The first pass (isNew nil) deduplicates successors by
// fingerprint and returns, per step, whether it reached a new node;
// later passes follow that record instead of a visited set, so what
// they time is the stepper and nothing else. It returns the nodes
// reached and the time spent in the stepping loop.
func replay(st *model.Stepper, in *instance, steps int, isNew []bool) ([]replayNode, []bool, time.Duration, error) {
	record := isNew == nil
	newNode := func() replayNode {
		return replayNode{cfg: in.cfg.Clone(), slotH: make([]uint64, st.Slots())}
	}
	// A timed pass knows how many nodes it will reach and allocates them
	// up front, so its loop allocates only what the stepper allocates.
	need := 1
	for _, fresh := range isNew {
		if fresh {
			need++
		}
	}
	nodes := make([]replayNode, need, need+1)
	for i := range nodes {
		nodes[i] = newNode()
	}
	nodes[0].fp = st.InitSlots(nodes[0].cfg, nodes[0].slotH)
	seen := map[uint64]bool{nodes[0].fp: true}
	used := 1
	scratch := newNode()

	start := time.Now()
	step := 0
	for i := 0; i < used && step < steps; i++ {
		for _, pid := range in.pids {
			if step == steps {
				break
			}
			if record && used == len(nodes) {
				nodes = append(nodes, newNode())
			}
			parent, dst := &nodes[i], &scratch
			if record || isNew[step] {
				dst = &nodes[used]
			}
			fp, ok, err := st.ApplyCOW(parent.cfg, parent.fp, parent.slotH, pid, dst.cfg, dst.slotH)
			if err != nil {
				return nil, nil, 0, err
			}
			var fresh bool
			if record {
				fresh = ok && !seen[fp]
				seen[fp] = seen[fp] || fresh
				isNew = append(isNew, fresh)
			} else {
				fresh = isNew[step]
			}
			if fresh {
				dst.fp = fp
				used++
			}
			step++
		}
	}
	return nodes[:used], isNew, time.Since(start), nil
}

// runModelReplay is the reference run behind the model.* metrics: the
// model layer timed directly, in a process of its own so that no
// exploration's heap stands behind it. It reports ns per ApplyCOW
// successor with the memoising stepper the fingerprint engine uses and
// with the exact stepper certificate searches use (median of three
// passes each), ns per Config.Key (exact keying) over the nodes reached,
// and the intern arena's size after the replay.
func runModelReplay(r *rep) {
	in, err := levelsyncSpec(r.scale).build(r)
	if err != nil {
		r.check(false, "set-up: %v", err)
		return
	}
	err = r.timed("model.replay", func(int) error {
		_, isNew, _, err := replay(model.NewStepper(in.p), in, replaySteps(r.scale), nil)
		if err != nil {
			return err
		}
		perStep := func(mk func(model.Protocol) *model.Stepper) (float64, *model.Stepper, []replayNode, error) {
			var ns []float64
			var st *model.Stepper
			var nodes []replayNode
			for pass := 0; pass < 3; pass++ {
				st = mk(in.p)
				var d time.Duration
				if nodes, _, d, err = replay(st, in, len(isNew), isNew); err != nil {
					return 0, nil, nil, err
				}
				ns = append(ns, float64(d.Nanoseconds())/float64(len(isNew)))
			}
			return median(ns), st, nodes, nil
		}
		cow, st, nodes, err := perStep(model.NewStepper)
		if err != nil {
			return err
		}
		exact, _, _, err := perStep(model.NewStepperExact)
		if err != nil {
			return err
		}
		r.layer["model.apply_cow_ns"] = cow
		r.layer["model.apply_exact_ns"] = exact
		values, states := st.Arena().Len()
		r.layer["model.arena_values"] = float64(values)
		r.layer["model.arena_states"] = float64(states)

		start := time.Now()
		for i := range nodes {
			keySink += len(nodes[i].cfg.Key())
		}
		r.layer["model.key_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(nodes))
		return nil
	})
	r.check(err == nil, "model replay: %v", err)
}

// keySink keeps the compiler from dropping the timed Key calls.
var keySink int

// findKDistinct times the old bench rig's "witness search" scenario: one
// provenance-tracking FindKDistinctDecisions over the row-3 instance at
// a 20k budget. Algorithm 1 at K=1 is a correct consensus protocol, so
// no execution decides two values and the search must come back empty
// after spending the whole budget.
func findKDistinct(r *rep) {
	in, err := row3(smokeBudget, check.EngineOptions{}).build(r)
	if err != nil {
		r.check(false, "find-k-distinct set-up: %v", err)
		return
	}
	start := time.Now()
	w, err := lowerbound.FindKDistinctDecisions(in.p, in.inputs, nil, 2,
		lowerbound.SearchLimits{MaxConfigs: in.spec.budget, Workers: 1})
	r.layer["lowerbound.find_kdistinct_s"] = time.Since(start).Seconds()
	r.check(err == nil && w == nil, "find-k-distinct: witness %v err %v, want neither", w, err)
}
