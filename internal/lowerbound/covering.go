package lowerbound

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/check"
	"repro/internal/model"
)

// BlockUpdate applies the poised operations of the processes in S to c,
// consecutively in the given order, mutating c — the "block swap by S" (β)
// of Section 5, generalizing Burns and Lynch's block write. It returns the
// steps taken, or an error if some process in S has decided.
func BlockUpdate(p model.Protocol, c *model.Config, s []int) (model.Execution, error) {
	var exec model.Execution
	for _, pid := range s {
		rec, err := model.Apply(p, c, pid)
		if err != nil {
			return nil, fmt.Errorf("lowerbound: block update by p%d: %w", pid, err)
		}
		exec = append(exec, rec)
	}
	return exec, nil
}

// CoveredObjects returns the set of objects covered in c by the processes
// of S (each poised to apply a nontrivial operation), mapping object index
// to the covering pid. If two processes of S cover the same object only
// one is recorded; covering in the paper's sense requires |S| distinct
// objects, which the caller can check via len of the result.
func CoveredObjects(p model.Protocol, c *model.Config, s []int) map[int]int {
	out := map[int]int{}
	for _, pid := range s {
		op, ok := p.Poised(pid, c.States[pid])
		if ok && !op.Trivial() {
			if _, dup := out[op.Object]; !dup {
				out[op.Object] = pid
			}
		}
	}
	return out
}

// coveredCount is len(CoveredObjects(p, c, s)), counted in a bitset over
// the objects instead of built as a map: one word on the stack for up to
// 64 objects.
func coveredCount(p model.Protocol, c *model.Config, s []int) int {
	var word [1]uint64
	set := word[:]
	if n := len(c.Objects); n > 64 {
		set = make([]uint64, (n+63)/64)
	}
	count := 0
	for _, pid := range s {
		if op, ok := p.Poised(pid, c.States[pid]); ok && !op.Trivial() {
			w, bit := op.Object/64, uint64(1)<<(op.Object%64)
			if set[w]&bit == 0 {
				set[w] |= bit
				count++
			}
		}
	}
	return count
}

// BivalenceCertificate is evidence that a set of processes Q is bivalent
// in some configuration: two Q-only schedules deciding different values.
type BivalenceCertificate struct {
	// Schedules[v] is a Q-only schedule from the configuration after
	// which some process of Q has decided Values[v].
	Schedules [2][]int
	// Values are the two distinct decided values.
	Values [2]int
}

// ProveBivalent searches for a bivalence certificate for Q in c: two
// Q-only executions deciding different values. It is the class search
// whose classes are the values Q's processes have decided, stopping once
// two are met. Returns nil if none found within limits (which proves
// nothing — univalence needs exhaustion).
func ProveBivalent(p model.Protocol, c *model.Config, q []int, limits SearchLimits) (*BivalenceCertificate, error) {
	found, _, err := check.SearchClasses(p, c, q, limits.engineOptions(), 2, decidedBy(q))
	if err != nil || len(found) < 2 {
		return nil, err
	}
	vals := slices.Sorted(maps.Keys(found))
	return &BivalenceCertificate{
		Schedules: [2][]int{found[vals[0]].Schedule(), found[vals[1]].Schedule()},
		Values:    [2]int{vals[0], vals[1]},
	}, nil
}

// Observation12 verifies the paper's Observation 12 on a binary consensus
// protocol: in the initial configuration where process q0 has input 0 and
// q1 has input 1 (everyone else input 0), the pair {q0, q1} is bivalent,
// witnessed by their solo runs, which must decide 0 and 1 respectively.
func Observation12(p model.Protocol, q0, q1 int, soloBound int) (*BivalenceCertificate, error) {
	inputs := make([]int, p.NumProcesses())
	inputs[q1] = 1
	cert := &BivalenceCertificate{Values: [2]int{0, 1}}
	for side, runner := range []int{q0, q1} {
		sched, err := soloSchedule(p, inputs, runner, side, soloBound)
		if err != nil {
			return nil, fmt.Errorf("lowerbound: observation 12: %w", err)
		}
		cert.Schedules[side] = sched
	}
	return cert, nil
}

// soloSchedule runs pid alone from the initial configuration of inputs
// until it decides, within soloBound steps (default 10 * n * (objects +
// 1)), and returns its schedule; deciding anything but want is an error
// (validity).
func soloSchedule(p model.Protocol, inputs []int, pid, want, soloBound int) ([]int, error) {
	c, err := model.NewConfig(p, inputs)
	if err != nil {
		return nil, err
	}
	if soloBound <= 0 {
		soloBound = 10 * p.NumProcesses() * (len(p.Objects()) + 1)
	}
	r, err := check.SoloRun(p, c, pid, soloBound)
	if err != nil {
		return nil, fmt.Errorf("solo run of p%d: %w", pid, err)
	}
	if v, ok := r.Decisions[pid]; !ok || v != want {
		return nil, fmt.Errorf("p%d decided %v solo, want %d (validity)", pid, r.Decisions, want)
	}
	sched := make([]int, len(r.Execution))
	for i, s := range r.Execution {
		sched[i] = s.Pid
	}
	return sched, nil
}

// Lemma13Result is the outcome of the Lemma 13 search: a Q-only schedule
// γ such that Q remains bivalent after the block swap β by S.
type Lemma13Result struct {
	// Gamma is the Q-only schedule found (possibly empty).
	Gamma []int
	// Bivalence certifies Q's bivalence in Cγβ.
	Bivalence *BivalenceCertificate
	// Tried is the number of candidate γ prefixes examined: every
	// configuration the search visited, through the level in which it
	// found γ.
	Tried int
}

// Lemma13Gamma searches for the γ guaranteed by Lemma 13: given a
// configuration c in which Q is bivalent and S ⊆ P covers a set of
// objects, find a Q-only execution γ from c such that Q is bivalent in
// Cγβ, where β is the block swap by S. It is the class search over
// Q-only schedules whose one class, 0, holds the configurations in which
// ProveBivalent (within bivLimits) certifies Q after β, applied on a
// clone; it stops at the first level holding one.
func Lemma13Gamma(p model.Protocol, c *model.Config, q, s []int, limits SearchLimits, bivLimits SearchLimits) (*Lemma13Result, error) {
	afterBeta := func(cfg *model.Config) (*BivalenceCertificate, error) {
		withBeta := cfg.Clone()
		if _, err := BlockUpdate(p, withBeta, s); err != nil {
			return nil, nil // some process of S has decided: not a candidate
		}
		return ProveBivalent(p, withBeta, q, bivLimits)
	}
	found, stats, err := check.SearchClasses(p, c, q, limits.engineOptions(), 1, func(v *check.View, classes []int) ([]int, error) {
		cert, err := afterBeta(v.Config())
		if cert != nil {
			classes = append(classes, 0)
		}
		return classes, err
	})
	if err != nil {
		return nil, err
	}
	gamma := found[0]
	if gamma == nil {
		if !stats.Complete {
			return nil, fmt.Errorf("lowerbound: lemma 13 search budget exhausted after %d prefixes", stats.Processed)
		}
		return nil, fmt.Errorf("lowerbound: lemma 13: no γ found within limits (%d prefixes tried)", stats.Processed)
	}
	// The certificate is not kept per node; γ's is found again.
	cert, err := afterBeta(gamma.Cfg)
	if err != nil {
		return nil, err
	}
	return &Lemma13Result{Gamma: gamma.Schedule(), Bivalence: cert, Tried: stats.Processed}, nil
}

// CoveringScanResult reports the strongest covering structure found in a
// reachable-configuration scan.
type CoveringScanResult struct {
	// MaxCovered is the largest number of distinct objects simultaneously
	// covered by distinct processes in any visited configuration.
	MaxCovered int
	// Schedule reaches a configuration attaining MaxCovered.
	Schedule []int
	// CoverMap maps object -> covering pid in that configuration.
	CoverMap map[int]int
	// Visited is the number of configurations the engine visited: the
	// whole reachable space, or exactly MaxConfigs when the budget binds.
	Visited int
}

// CoveringScan explores reachable configurations of p from the given
// inputs and reports the maximum simultaneous covering found — the
// empirical analogue of the covering structures that Lemma 16 accumulates
// (its X_i ∪ Y_i sets grow to n-2 covered-or-frozen objects). It is the
// class search whose class is the number of covered objects; it never
// stops early and reports the largest class.
func CoveringScan(p model.Protocol, inputs []int, limits SearchLimits) (*CoveringScanResult, error) {
	start, err := model.NewConfig(p, inputs)
	if err != nil {
		return nil, err
	}
	all := allPids(p)
	found, stats, err := check.SearchClasses(p, start, all, limits.engineOptions(), 0, func(v *check.View, classes []int) ([]int, error) {
		return append(classes, coveredCount(p, v.Config(), all)), nil
	})
	if err != nil {
		return nil, err
	}
	maxCovered := slices.Max(slices.Collect(maps.Keys(found)))
	return &CoveringScanResult{
		MaxCovered: maxCovered,
		Schedule:   found[maxCovered].Schedule(),
		CoverMap:   CoveredObjects(p, found[maxCovered].Cfg, all),
		Visited:    stats.Processed,
	}, nil
}
