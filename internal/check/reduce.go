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
// fingerprint is the orbit-canonical fingerprint
// (model.Config.CanonicalSlotFingerprint), in which each class's state
// slots contribute one term of the wrapping sum of their hashes instead of
// one term per position, so all pid-permuted variants of a configuration
// collapse into one visited entry. Nothing is re-encoded or sorted: an
// expanded node's class sums and terms are computed once from its slots'
// content hashes, read from the run's dictionary, and since a step changes only the
// actor's state slot, each successor's fingerprint is its parent's with
// the actor's share of one class sum swapped — O(1) per successor.
// Soundness is the protocol's declaration (see model.ProcessSymmetric);
// classes are refined against the start configuration and the explored
// pid set, so only processes that are genuinely interchangeable *in this
// run* are quotiented. Protocols declaring no symmetry run unreduced
// (states_pruned stays 0).
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
	// OrbitHits is always 0.
	//
	// Deprecated: the orbit memo is gone (canonical fingerprints are
	// updated per successor in O(1)); the field stays for callers that
	// still read it.
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

// planReduction refines the protocol's declared symmetry classes against
// the run: a class member survives only if it is explored (in allowed)
// and shares its initial state slot hash with the rest of its subclass —
// permuting processes with different initial states would relate this
// run's space to a different run's, and permuting an explored process
// with a quiesced one would not preserve the schedule restriction.
// Classes that refine below two members are dropped. Each class returned
// is an ascending slice of pids; none means the quotient is inactive (no
// declaration, or refinement dissolved every class).
func planReduction(p model.Protocol, allowed []bool, nObj int, rootH []uint64) [][]int {
	var classes [][]int
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
			classes = append(classes, sub)
		}
	}
	// Deterministic class order (map iteration above is not): sort by
	// first member. Class terms are salted by class index, so the order
	// must be a pure function of the run.
	sort.Slice(classes, func(i, j int) bool { return classes[i][0] < classes[j][0] })
	return classes
}

// symWorker is one worker's incremental canonicalizer. Like the
// steppers, one instance serves one goroutine; nothing in it is locked, and
// the counter is summed after the run.
type symWorker struct {
	dict    *model.Dict // the run's, which holds the slot hashes
	classes [][]int
	nObj    int
	// slots holds, per pid, what load derived from the planned node for
	// the successors pid's steps lead to.
	slots []symSlot
	// fp is the planned node's canonical fingerprint, unsorted the number
	// of its classes whose hashes are not ascending.
	fp       uint64
	unsorted int64

	statesPruned int64
	_            [40]byte // 128 bytes: two cache lines no other worker's data shares
}

// symSlot is one pid's share of the planned node's canonical fingerprint,
// as load sets it for a pid in class ci:
//   - class is ci+1 (0, the zero value, for a pid outside every class,
//     which load never touches);
//   - desc counts the class's descents (a member hash below its
//     predecessor's) that do not involve the pid, and own is 1 when the
//     class has any descent at all;
//   - base is the class's term XOR the pid's positional slot contribution,
//     what turns the node's canonical fingerprint into the plain form a
//     step's delta applies to, and sum is the class sum without the pid's
//     share;
//   - prev and next are the hashes of the pid's neighbours in class order:
//     0 before the first member, ^0 after the last.
type symSlot struct {
	class, desc, own      int32
	base, sum, prev, next uint64
}

func newSymWorker(dict *model.Dict, classes [][]int, nObj, nProc int) *symWorker {
	// Two unused slots (96 bytes) on each side keep other workers' data
	// off the slots' cache lines: load rewrites them for every node.
	return &symWorker{dict: dict, classes: classes, nObj: nObj, slots: make([]symSlot, nProc+4)[2 : nProc+2 : nProc+2]}
}

// load computes, from scratch, the canonical fingerprint (fp) and the
// unsorted classes (unsorted) of the node whose slot fingerprint and slot
// refs are slotFP and refs, and sets every class member's slot for
// successor: two passes over the class members, once per expanded node
// (and for the root and a replayed node, which have no parent to step
// from).
func (w *symWorker) load(slotFP uint64, refs []uint32) {
	fp, unsorted := slotFP, int64(0)
	for ci, class := range w.classes {
		sum, desc, prev := uint64(0), int32(0), uint64(0)
		for _, pid := range class {
			h, sl := w.dict.SlotHash(w.nObj+pid, refs[w.nObj+pid]), &w.slots[pid]
			sl.base, sl.sum, sl.prev = model.MixSlotHash(w.nObj+pid, h), model.Mix64(h), prev
			if h < prev {
				desc++
			}
			fp, sum, prev = fp^sl.base, sum+sl.sum, h
		}
		term, own := model.ClassTerm(ci, sum), min(desc, 1)
		fp, unsorted = fp^term, unsorted+int64(own)
		next := ^uint64(0)
		for j := len(class) - 1; j >= 0; j-- {
			h, sl := w.dict.SlotHash(w.nObj+class[j], refs[w.nObj+class[j]]), &w.slots[class[j]]
			sl.class, sl.own, sl.base, sl.sum, sl.desc = int32(ci)+1, own, sl.base^term, sum-sl.sum, desc
			sl.next, next = next, h
			if h < sl.prev {
				sl.desc--
			}
			if sl.next < h {
				sl.desc--
			}
		}
	}
	w.fp, w.unsorted = fp, unsorted
}

// successor returns the canonical fingerprint of the successor pid's
// planned step s leads to from the node load last saw, and counts its
// unsorted classes (StatesPruned). Only the actor's state slot changes
// among the class slots, so it is the node's fingerprint with the actor's
// share of its class sum swapped and the object slot's delta applied.
func (w *symWorker) successor(pid int, s *model.Step) uint64 {
	sl := &w.slots[pid]
	if sl.class == 0 {
		// Positional like the objects: the step's delta is all there is.
		w.statesPruned += w.unsorted
		return s.Fingerprint(w.fp)
	}
	// The class stays ascending when no other pair descends and h fits
	// between its neighbours. Counting, not ||, keeps the comparisons of
	// a hash with no order to predict free of branches.
	h, desc, unsorted := s.StateHash(), sl.desc, w.unsorted-int64(sl.own)
	if h < sl.prev {
		desc++
	}
	if sl.next < h {
		desc++
	}
	if desc > 0 {
		unsorted++
	}
	w.statesPruned += unsorted
	return s.Fingerprint(w.fp^sl.base) ^ model.MixSlotHash(w.nObj+pid, h) ^ model.ClassTerm(int(sl.class)-1, sl.sum+model.Mix64(h))
}
