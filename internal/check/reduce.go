package check

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// This file is the engine's state-space reduction layer: incremental
// process-symmetry quotienting ("sym"), the admission-time transformation
// that makes an exploration visit fewer configurations while preserving
// the verdicts the callers ask for.
//
// Protocols that declare process symmetry (model.ProcessSymmetric) are
// explored one orbit representative at a time: a successor's dedup
// fingerprint is the orbit-canonical fingerprint — class state-slot hashes
// sorted before position mixing — so all pid-permuted variants of a
// configuration collapse into one visited entry. The canonical fingerprint
// is assembled from the per-slot content hashes ApplyCOW already
// maintains, not from a re-encoding: removing a class's raw contribution
// and adding its sorted contribution is a handful of XORs, and an
// orbit-memo table keyed by the class's hash multiset answers repeated
// orbits in O(class) with no sort. Soundness is the protocol's declaration
// (see model.ProcessSymmetric); classes are refined against the start
// configuration and the explored pid set, so only processes that are
// genuinely interchangeable *in this run* are quotiented. Protocols
// declaring no symmetry run unreduced (states_pruned stays 0).
//
// The quotient is one of *reachability*, not of schedules: it is sound
// for the questions Explore and CheckObstructionFree answer
// (decided-value sets, valency classes, violation existence — all
// orbit-invariant) and is rejected for witness-producing runs
// (EngineOptions.Provenance: lowerbound schedule searches, certificate
// ledgers) where the specific interleaving matters, and for exact
// string-keyed runs, whose whole point is that no hash-level shortcut can
// stand in for a configuration.

// Reduction mode names accepted by EngineOptions.Reduction.
const (
	// ReduceNone disables state-space reduction (the default; "" means
	// the same).
	ReduceNone = "none"
	// ReduceSym enables incremental process-symmetry quotienting.
	ReduceSym = "sym"
	// ReduceSymSleep is a deprecated synonym of ReduceSym, accepted so
	// that callers naming it keep running; a run started with it reports
	// Reduce "sym". (It selected sleep-set pruning on top of the quotient,
	// which visited the same states and never paid for itself.)
	ReduceSymSleep = "sym+sleep"
)

// ReductionStats reports a run's reduction activity; the sweep JSONL
// records carry it so reduced runs are auditable.
//
// The counters are diagnostics, not results: when the quotient is active
// under multiple workers, which concrete orbit member is retained as a
// cell's representative follows admission order, and the counters tally
// work done on those concrete members — so they may vary slightly across
// worker counts even though visited counts, decided sets and every
// verdict are exactly worker-independent. Single-worker runs (and all
// unquotiented runs) have fully deterministic counters.
type ReductionStats struct {
	// Reduce is the mode that ran ("" or "sym").
	Reduce string `json:"reduce,omitempty"`
	// StatesPruned counts reduction hits: successors folded into an
	// already-represented orbit cell (their class hashes were not in
	// canonical order — some permuted sibling represents them). A
	// symmetric instance explored with "sym"
	// must show a nonzero count; an asymmetric one legitimately shows 0.
	StatesPruned int64 `json:"states_pruned,omitempty"`
	// OrbitHits counts orbit-memo hits: canonicalizations answered from
	// the memo without sorting.
	OrbitHits int64 `json:"orbit_hits,omitempty"`
	// SleepSkipped is always 0.
	//
	// Deprecated: sleep-set pruning is gone; the field stays for callers
	// that still read it.
	SleepSkipped int64 `json:"sleep_skipped,omitempty"`
}

// add folds o, another process's share of one run, into s: the counters
// sum, and Reduce is o's (every share ran the same mode).
func (s *ReductionStats) add(o ReductionStats) {
	s.Reduce = o.Reduce
	s.StatesPruned += o.StatesPruned
	s.OrbitHits += o.OrbitHits
}

// parseReduction validates a Reduction mode string.
func parseReduction(mode string) (sym bool, err error) {
	switch mode {
	case "", ReduceNone:
		return false, nil
	case ReduceSym, ReduceSymSleep:
		return true, nil
	default:
		return false, fmt.Errorf("frontier engine: unknown reduction %q (have %q, %q)", mode, ReduceNone, ReduceSym)
	}
}

// reductionPlan is the per-run reduction configuration shared by all
// workers: the refined symmetry classes (possibly none).
type reductionPlan struct {
	// classes are the refined symmetry classes: each is an ascending
	// slice of pids, length >= 2. Empty means the quotient is inactive
	// (no declaration, or refinement dissolved every class).
	classes [][]int
}

// planReduction refines the protocol's declared symmetry classes against
// the run: a class member survives only if it is explored (in allowed)
// and shares its initial state slot hash with the rest of its subclass —
// permuting processes with different initial states would relate this
// run's space to a different run's, and permuting an explored process
// with a quiesced one would not preserve the schedule restriction.
// Classes that refine below two members are dropped.
func planReduction(p model.Protocol, allowed []bool, nObj int, rootH []uint64) *reductionPlan {
	plan := &reductionPlan{}
	for _, class := range model.SymmetryClasses(p) {
		byInit := map[uint64][]int{}
		for _, pid := range class {
			if pid < 0 || pid >= len(allowed) || !allowed[pid] {
				continue
			}
			h := rootH[nObj+pid]
			byInit[h] = append(byInit[h], pid)
		}
		for _, sub := range byInit {
			if len(sub) < 2 {
				continue
			}
			sort.Ints(sub)
			plan.classes = append(plan.classes, sub)
		}
	}
	// Deterministic class order (map iteration above is not): sort by
	// first member. Orbit keys are salted by class index, so the order
	// must be a pure function of the run.
	sort.Slice(plan.classes, func(i, j int) bool { return plan.classes[i][0] < plan.classes[j][0] })
	return plan
}

// active reports whether the symmetry quotient does anything.
func (r *reductionPlan) active() bool { return r != nil && len(r.classes) > 0 }

// symWorker is one worker's incremental canonicalizer. Like the
// steppers, one instance serves one goroutine; the orbit memo and the
// counters are touched without locking and the counters are summed after
// the run.
type symWorker struct {
	plan    *reductionPlan
	nObj    int
	memo    map[uint64]uint64 // orbit key -> canonical class contribution
	scratch []uint64

	statesPruned int64
	orbitHits    int64
}

func newSymWorker(plan *reductionPlan, nObj int) *symWorker {
	return &symWorker{plan: plan, nObj: nObj, memo: make(map[uint64]uint64, 1024)}
}

// mix2 is a splitmix64-style finalizer used to build order-invariant
// orbit keys from slot hashes.
func mix2(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// canonFP converts a successor's incremental slot fingerprint into its
// orbit-canonical fingerprint using the per-slot content hashes. For
// each refined class it removes the class's positional contribution and
// adds the sorted (canonical) one. Configurations whose class hashes are
// already ascending are their own representatives and cost one scan;
// everything else is answered by the orbit memo (keyed by an
// order-invariant hash of the class multiset) or, on a miss, by one
// sort whose result is memoized.
func (w *symWorker) canonFP(slotFP uint64, slotH []uint64) uint64 {
	fp := slotFP
	for ci, class := range w.plan.classes {
		// Sortedness scan first — comparisons only. Already-ascending
		// class hashes are the common case (the orbit's own
		// representative), and it must stay as close to free as the
		// unreduced path as possible; the orbit-key mixing below is paid
		// only by non-canonical members.
		sorted := true
		prev := slotH[w.nObj+class[0]]
		for _, pid := range class[1:] {
			h := slotH[w.nObj+pid]
			if h < prev {
				sorted = false
				break
			}
			prev = h
		}
		if sorted {
			// Identity orbit member: the positional contribution already
			// is the canonical one.
			continue
		}
		var sum, xor uint64
		for _, pid := range class {
			m := mix2(slotH[w.nObj+pid])
			sum += m
			xor ^= m
		}
		w.statesPruned++
		// Remove the raw positional contribution of the class slots.
		for _, pid := range class {
			fp ^= model.MixSlotHash(w.nObj+pid, slotH[w.nObj+pid])
		}
		key := mix2(sum ^ mix2(xor) ^ uint64(ci)*0x9E3779B97F4A7C15)
		if contrib, ok := w.memo[key]; ok {
			w.orbitHits++
			fp ^= contrib
			continue
		}
		w.scratch = w.scratch[:0]
		for _, pid := range class {
			w.scratch = append(w.scratch, slotH[w.nObj+pid])
		}
		sort.Slice(w.scratch, func(i, j int) bool { return w.scratch[i] < w.scratch[j] })
		var contrib uint64
		for j, h := range w.scratch {
			contrib ^= model.MixSlotHash(w.nObj+class[j], h)
		}
		w.memo[key] = contrib
		fp ^= contrib
	}
	return fp
}
