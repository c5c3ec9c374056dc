package check

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// This file is the engine's pluggable state-space reduction layer: the
// admission-time transformations that make an exploration visit *fewer*
// configurations (or generate fewer successors) while preserving the
// verdicts the callers ask for. Two reductions are implemented:
//
//   - Incremental process-symmetry quotienting ("sym"). Protocols that
//     declare process symmetry (model.ProcessSymmetric) are explored one
//     orbit representative at a time: a successor's dedup fingerprint is
//     the orbit-canonical fingerprint — class state-slot hashes sorted
//     before position mixing — so all pid-permuted variants of a
//     configuration collapse into one visited entry. The canonical
//     fingerprint is assembled from the per-slot content hashes ApplyCOW
//     already maintains, not from a re-encoding: removing a
//     class's raw contribution and adding its sorted contribution is a
//     handful of XORs, and an orbit-memo table keyed by the class's
//     hash multiset answers repeated orbits in O(class) with no sort.
//     Soundness is the protocol's declaration (see
//     model.ProcessSymmetric); classes are refined against the start
//     configuration and the explored pid set, so only processes that are
//     genuinely interchangeable *in this run* are quotiented. Protocols
//     declaring no symmetry run unreduced (states_pruned stays 0).
//
//   - Sleep-set pruning ("sym+sleep"). Two poised operations on
//     different objects by different processes commute: the two
//     interleavings from a configuration land in the same grandchild.
//     The engine therefore generates only the ascending-pid interleaving
//     of each commuting pair: when pid q's successor is admitted it
//     carries a sleep mask of the smaller commuting pids, and when that
//     successor is expanded the masked pids are skipped — their
//     successors are exactly the states the unmasked sibling order
//     reaches. Masks of duplicate admissions are intersected at the
//     claim, under its lock (a commutative fold, so the result is
//     independent of arrival order), which is the classic condition for combining
//     sleep sets with state matching; because BFS expands a level only
//     after its barrier, the intersection is complete before any mask is
//     consulted. Sleep sets prune redundant *transitions* (successor
//     generation, hashing, admission traffic) rather than reachable
//     states, so the visited set — and every verdict derived from it —
//     is unchanged; the differential suite pins this down per scenario.
//
//     Why state matching needs no mask reconciliation here (the classic
//     sleep-set-with-state-matching hazard): a state's mask is built
//     exclusively from its FIRST-visit-level generators, and a skip
//     (z, m) it justifies is covered through one of those generators'
//     own sibling diamonds — z+m equals w+m+q for a first-level
//     generator step (w, q), where w sits one level shallower. If m is
//     masked at w, or w+m deduplicates into a shallower first visit,
//     the same argument applies there; each appeal strictly decreases
//     (first-visit depth, pid), so the descent bottoms out at the
//     mask-free root. A later path re-reaching z (the graph need not be
//     leveled; cycles and uneven diamonds occur in toybit and the
//     Algorithm 1 k-set instances) therefore has no claim to
//     reconcile: everything it could reach through z's masked pids is
//     already reachable through the first visit's unmasked routes. The
//     cross-level differential cases (loopProto, toybit, kset-swap)
//     exercise exactly this.
//
//     The argument leans on the barrier twice — "the intersection is
//     complete before any mask is consulted" and "first-visit level" —
//     so sleep sets run under the level-synchronized order only; the
//     async order rejects them (ModeConflicts).
//
// Both reductions are quotients of *reachability*, not of schedules:
// they are sound for the questions Explore and ClassifyValency answer
// (decided-value sets, valency classes, violation existence — all
// orbit-invariant) and are rejected for witness-producing runs
// (EngineOptions.Provenance: lowerbound schedule searches, certificate
// ledgers) where the specific interleaving matters, and for exact
// string-keyed runs, whose whole point is that no hash-level shortcut
// can stand in for a configuration. CheckObstructionFree additionally
// rejects sleep: its verdict quantifies over solo runs *from every
// reachable configuration*, which symmetry maps orbit-to-orbit but
// sleep's transition pruning does not enumerate.

// Reduction mode names accepted by EngineOptions.Reduction.
const (
	// ReduceNone disables state-space reduction (the default; "" means
	// the same).
	ReduceNone = "none"
	// ReduceSym enables incremental process-symmetry quotienting.
	ReduceSym = "sym"
	// ReduceSymSleep enables symmetry quotienting plus sleep-set pruning
	// of commuting successor pairs.
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
	// Reduce is the mode that ran ("none", "sym", "sym+sleep").
	Reduce string `json:"reduce,omitempty"`
	// StatesPruned counts reduction hits: successors folded into an
	// already-represented orbit cell (their class hashes were not in
	// canonical order — some permuted sibling represents them) plus
	// sleep-skipped expansions. A symmetric instance explored with "sym"
	// must show a nonzero count; an asymmetric one legitimately shows 0.
	StatesPruned int64 `json:"states_pruned,omitempty"`
	// OrbitHits counts orbit-memo hits: canonicalizations answered from
	// the memo without sorting.
	OrbitHits int64 `json:"orbit_hits,omitempty"`
	// SleepSkipped counts expansions skipped by sleep masks (also
	// included in StatesPruned).
	SleepSkipped int64 `json:"sleep_skipped,omitempty"`
}

// parseReduction validates a Reduction mode string.
func parseReduction(mode string) (sym, sleep bool, err error) {
	switch mode {
	case "", ReduceNone:
		return false, false, nil
	case ReduceSym:
		return true, false, nil
	case ReduceSymSleep:
		return true, true, nil
	default:
		return false, false, fmt.Errorf("frontier engine: unknown reduction %q (have %q, %q, %q)",
			mode, ReduceNone, ReduceSym, ReduceSymSleep)
	}
}

// reductionPlan is the per-run reduction configuration shared by all
// workers: the refined symmetry classes (possibly none) and the sleep
// toggle.
type reductionPlan struct {
	sleep bool
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
func planReduction(p model.Protocol, allowed []bool, nObj int, rootH []uint64, sleep bool) *reductionPlan {
	plan := &reductionPlan{sleep: sleep}
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
