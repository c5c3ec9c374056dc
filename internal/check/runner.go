// Package check drives protocols through the shared-memory model: it runs
// executions under schedulers, explores configuration spaces exhaustively,
// computes valency (the bivalent/univalent classification of Section 2 of
// the paper), and checks the k-set agreement correctness properties
// (k-agreement, validity) and solo termination (obstruction-freedom).
//
// # The frontier engine
//
// All exhaustive searches (Explore, ClassifyValency, CheckObstructionFree
// and, via the lowerbound package, the schedule searches) run on the
// sharded frontier engine (RunFrontier): one expansion core and one
// worker loop over it, fed in one of two orders. The per-worker expander
// (expand.go) turns a node into keyed successors — arena-backed
// copy-on-write steps with incrementally-maintained fingerprints
// (model.Stepper), node buffers recycled through sync.Pool, one keying
// decision, routing to the owning peer of a distributed run —
// allocation-free in the steady case. The level-synchronized order
// (levelsync.go) feeds the workers a level at a time, a parallel BFS with
// a barrier per depth level; the async order (async.go) from per-worker
// work-stealing deques, with quiescence detection. Deduplication
// runs on an open-addressing table, a successor claimed by its
// fingerprint before it is built and the table's lock taken once per
// chunk of nodes, not per successor. The engine knobs live in EngineOptions:
//
//   - Workers: goroutines expanding the frontier (default
//     runtime.GOMAXPROCS(0)). Results never depend on it: per-level
//     barriers, commutative merging and sorted-fingerprint budget
//     truncation make every aggregate deterministic.
//   - Order: "levelsync" (the default) or "async". Same visited set and
//     verdicts; async gives up level structure and schedule determinism,
//     and runs unreduced or under "sym" over the unbudgeted store only,
//     without checkpoints.
//   - StringKeys: dedup on the exact compact binary encoding instead of
//     the default 64-bit incremental slot fingerprint. Fingerprints are
//     faster and ~10x smaller but admit a ~2^-64 per-pair collision risk
//     (bitstate-hashing trade-off); certificate searches that must never
//     silently prune a witness use StringKeys, which also keys the
//     transition memos by exact encodings instead of slot hashes.
//   - Reduction: the state-space reduction layer (reduce.go) —
//     incremental process-symmetry quotienting over the classes the
//     protocol declares (model.ProcessSymmetric). Sound for
//     reachability/valency questions, not for schedules.
//   - Store, MemBudget (and SpillDir): the state store's resident-byte
//     budget. "mem" (the default) keeps the visited set and the frontier
//     in RAM and touches no disk; "spill" holds MemBudget (default
//     DefaultMemBudget) resident, spooling the frontier to segment files
//     and spilling the visited set to sorted runs. Same results either
//     way; the explorable space is then bounded by disk, not RAM.
//
// Which of these (and Provenance, Checkpoint, Dist) combine is declared
// once, in ModeConflicts (modes.go); a rejected combination wraps
// ErrIncompatibleModes.
//
// ExploreSequential is the original single-threaded explorer, retained as
// the differential-testing oracle and benchmark baseline.
package check

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/sched"
)

// ErrStepLimit is returned (wrapped) when a run exceeds its step budget
// before every scheduled process decides. For obstruction-free protocols
// under adversarial schedules this is expected, not a bug.
var ErrStepLimit = errors.New("step limit reached before termination")

// Result is the outcome of a run.
type Result struct {
	// Final is the final configuration.
	Final *model.Config
	// Execution is the sequence of steps taken.
	Execution model.Execution
	// Decisions maps pid to decided value for every decided process.
	Decisions map[int]int
	// Steps is the total number of steps taken.
	Steps int
}

// DecidedValues returns the distinct decided values in ascending order.
func (r *Result) DecidedValues() []int {
	seen := map[int]bool{}
	for _, v := range r.Decisions {
		seen[v] = true
	}
	return sortedValueSet(seen)
}

// sortedValueSet returns the elements of set in ascending order; it is
// the one decided-value-set helper shared by Result.DecidedValues and the
// explorers' aggregation.
func sortedValueSet(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Run steps protocol p from configuration c (which it mutates) under
// scheduler s until every process has decided, the scheduler yields no
// process (returns -1), or maxSteps is exceeded (ErrStepLimit).
func Run(p model.Protocol, c *model.Config, s sched.Scheduler, maxSteps int) (*Result, error) {
	res := &Result{Final: c, Decisions: map[int]int{}}
	for steps := 0; ; steps++ {
		active := c.Active(p)
		if len(active) == 0 {
			break
		}
		pid := s.Next(c, active)
		if pid == -1 {
			break
		}
		if !contains(active, pid) {
			return nil, fmt.Errorf("check: scheduler %s picked inactive process %d", sched.Describe(s), pid)
		}
		if steps >= maxSteps {
			res.Steps = steps
			fillDecisions(p, c, res)
			return res, fmt.Errorf("check: %w after %d steps (%s)", ErrStepLimit, steps, p.Name())
		}
		rec, err := model.Apply(p, c, pid)
		if err != nil {
			return nil, err
		}
		res.Execution = append(res.Execution, rec)
		res.Steps++
	}
	fillDecisions(p, c, res)
	return res, nil
}

// RunFromInputs builds the initial configuration for inputs and runs.
func RunFromInputs(p model.Protocol, inputs []int, s sched.Scheduler, maxSteps int) (*Result, error) {
	c, err := model.NewConfig(p, inputs)
	if err != nil {
		return nil, err
	}
	return Run(p, c, s, maxSteps)
}

// SoloRun runs process pid alone from configuration c (mutated in place)
// until it decides or maxSteps is exceeded. For a nondeterministic
// solo-terminating protocol this is the paper's "solo-terminating
// execution by pid from C".
func SoloRun(p model.Protocol, c *model.Config, pid, maxSteps int) (*Result, error) {
	return Run(p, c, sched.Solo{Pid: pid}, maxSteps)
}

// SoloSteps is the record-free SoloRun: it runs pid alone from c (mutated
// in place) until it decides or maxSteps is exceeded and returns only the
// step count, allocating no Execution or StepRecord buffers. It is the
// inner loop of the obstruction-freedom checker, which performs one solo
// run per (reachable configuration, undecided process) pair and only ever
// consumes the count.
func SoloSteps(p model.Protocol, c *model.Config, pid, maxSteps int) (int, error) {
	for steps := 0; ; steps++ {
		if _, decided := c.Decided(p, pid); decided {
			return steps, nil
		}
		if steps >= maxSteps {
			return steps, fmt.Errorf("check: %w after %d steps (%s)", ErrStepLimit, steps, p.Name())
		}
		if _, err := model.Apply(p, c, pid); err != nil {
			return steps, err
		}
	}
}

func fillDecisions(p model.Protocol, c *model.Config, res *Result) {
	for pid := range c.States {
		if v, ok := c.Decided(p, pid); ok {
			res.Decisions[pid] = v
		}
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// CheckAgreement verifies the k-agreement property on a result: at most k
// distinct values decided. It returns a descriptive error on violation.
func CheckAgreement(r *Result, k int) error {
	vals := r.DecidedValues()
	if len(vals) > k {
		return fmt.Errorf("check: k-agreement violated: %d distinct values %v decided (k=%d)", len(vals), vals, k)
	}
	return nil
}

// CheckValidity verifies the validity property: every decided value was
// the input of some process.
func CheckValidity(r *Result, inputs []int) error {
	inputSet := map[int]bool{}
	for _, v := range inputs {
		inputSet[v] = true
	}
	for pid, v := range r.Decisions {
		if !inputSet[v] {
			return fmt.Errorf("check: validity violated: process %d decided %d, not an input (inputs %v)", pid, v, inputs)
		}
	}
	return nil
}

// CheckAll runs both correctness checks.
func CheckAll(r *Result, k int, inputs []int) error {
	if err := CheckAgreement(r, k); err != nil {
		return err
	}
	return CheckValidity(r, inputs)
}
