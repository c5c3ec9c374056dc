package lowerbound

import (
	"fmt"
	"sort"

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

// BivalenceCertificate is evidence that a set of processes Q is bivalent
// in some configuration: two Q-only schedules deciding different values.
type BivalenceCertificate struct {
	// Schedules[v] is a Q-only schedule from the configuration after
	// which some process of Q has decided Values[v].
	Schedules [2][]int
	// Values are the two distinct decided values.
	Values [2]int
}

// walk is the breadth-first search ProveBivalent, Lemma13Gamma and
// CoveringScan share: the configurations reachable from a start
// configuration by steps of a process set, deduplicated by Config.Key, in
// discovery order (a configuration's successors in Config.Active's pid
// order), with the parent links a schedule is read back from.
type walk struct {
	nodes []walkNode
}

type walkNode struct {
	cfg    *model.Config
	parent int
	pid    int
	depth  int
}

// schedule returns the pid sequence leading from the start to node idx.
func (w *walk) schedule(idx int) []int {
	var sched []int
	for i := idx; w.nodes[i].parent != -1; i = w.nodes[i].parent {
		sched = append(sched, w.nodes[i].pid)
	}
	for l, r := 0, len(sched)-1; l < r; l, r = l+1, r-1 {
		sched[l], sched[r] = sched[r], sched[l]
	}
	return sched
}

// run walks from start, which it keeps, by steps of pids. visit sees each configuration once, before it is expanded,
// and ends the walk by returning stop or an error. full reports that the
// walk ended because one more configuration would exceed
// limits.MaxConfigs; configurations at limits.MaxDepth are visited but
// not expanded.
func (w *walk) run(p model.Protocol, start *model.Config, pids []int, limits SearchLimits,
	visit func(idx int, cfg *model.Config) (stop bool, err error)) (full bool, err error) {
	limits = limits.withDefaults()
	w.nodes = []walkNode{{cfg: start, parent: -1, pid: -1}}
	seen := map[string]bool{start.Key(): true}
	allowed := map[int]bool{}
	for _, pid := range pids {
		allowed[pid] = true
	}
	for head := 0; head < len(w.nodes); head++ {
		cur := w.nodes[head]
		if stop, err := visit(head, cur.cfg); stop || err != nil {
			return false, err
		}
		if limits.MaxDepth > 0 && cur.depth >= limits.MaxDepth {
			continue
		}
		for _, pid := range cur.cfg.Active(p) {
			if !allowed[pid] {
				continue
			}
			next := cur.cfg.Clone()
			if _, err := model.Apply(p, next, pid); err != nil {
				return false, err
			}
			key := next.Key()
			if seen[key] {
				continue
			}
			if len(w.nodes) >= limits.MaxConfigs {
				return true, nil
			}
			seen[key] = true
			w.nodes = append(w.nodes, walkNode{cfg: next, parent: head, pid: pid, depth: cur.depth + 1})
		}
	}
	return false, nil
}

// ProveBivalent searches for a bivalence certificate for Q in c: two
// Q-only executions deciding different values. Returns nil if none found
// within limits (which proves nothing — univalence needs exhaustion).
func ProveBivalent(p model.Protocol, c *model.Config, q []int, limits SearchLimits) (*BivalenceCertificate, error) {
	var w walk
	// found maps decided value -> node index of first witness.
	found := map[int]int{}
	_, err := w.run(p, c.Clone(), q, limits, func(idx int, cfg *model.Config) (bool, error) {
		for _, pid := range q {
			if v, ok := cfg.Decided(p, pid); ok {
				if _, dup := found[v]; !dup {
					found[v] = idx
				}
			}
		}
		return len(found) >= 2, nil
	})
	if err != nil || len(found) < 2 {
		return nil, err
	}
	vals := make([]int, 0, 2)
	for v := range found {
		vals = append(vals, v)
	}
	sort.Ints(vals)
	return &BivalenceCertificate{
		Schedules: [2][]int{w.schedule(found[vals[0]]), w.schedule(found[vals[1]])},
		Values:    [2]int{vals[0], vals[1]},
	}, nil
}

// Observation12 verifies the paper's Observation 12 on a binary consensus
// protocol: in the initial configuration where process q0 has input 0 and
// q1 has input 1 (everyone else input 0), the pair {q0, q1} is bivalent,
// witnessed by their solo runs, which must decide 0 and 1 respectively.
func Observation12(p model.Protocol, q0, q1 int, soloBound int) (*BivalenceCertificate, error) {
	n := p.NumProcesses()
	inputs := make([]int, n)
	inputs[q1] = 1
	if soloBound <= 0 {
		soloBound = 10 * n * (len(p.Objects()) + 1)
	}
	cert := &BivalenceCertificate{Values: [2]int{0, 1}}
	for side, runner := range []int{q0, q1} {
		c, err := model.NewConfig(p, inputs)
		if err != nil {
			return nil, err
		}
		r, err := check.SoloRun(p, c, runner, soloBound)
		if err != nil {
			return nil, fmt.Errorf("lowerbound: observation 12: %w", err)
		}
		v, ok := r.Decisions[runner]
		if !ok {
			return nil, fmt.Errorf("lowerbound: observation 12: q%d did not decide solo", runner)
		}
		if v != side {
			return nil, fmt.Errorf("lowerbound: observation 12: q%d decided %d solo, want %d (validity)", runner, v, side)
		}
		sched := make([]int, len(r.Execution))
		for i, s := range r.Execution {
			sched[i] = s.Pid
		}
		cert.Schedules[side] = sched
	}
	return cert, nil
}

// Lemma13Result is the outcome of the Lemma 13 search: a Q-only schedule
// γ such that Q remains bivalent after the block swap β by S.
type Lemma13Result struct {
	// Gamma is the Q-only schedule found (possibly empty).
	Gamma []int
	// Bivalence certifies Q's bivalence in Cγβ.
	Bivalence *BivalenceCertificate
	// Tried is the number of candidate γ prefixes examined.
	Tried int
}

// Lemma13Gamma searches for the γ guaranteed by Lemma 13: given a
// configuration c in which Q is bivalent and S ⊆ P covers a set of
// objects, find a Q-only execution γ from c such that Q is bivalent in
// Cγβ, where β is the block swap by S. The search enumerates Q-only
// schedules breadth-first and, for each, applies β on a clone and tries to
// certify bivalence.
func Lemma13Gamma(p model.Protocol, c *model.Config, q, s []int, limits SearchLimits, bivLimits SearchLimits) (*Lemma13Result, error) {
	var w walk
	res := &Lemma13Result{}
	full, err := w.run(p, c.Clone(), q, limits, func(idx int, cfg *model.Config) (bool, error) {
		res.Tried++
		// Apply the block swap on a clone and test bivalence of Q there.
		withBeta := cfg.Clone()
		if _, err := BlockUpdate(p, withBeta, s); err != nil {
			return false, nil
		}
		cert, err := ProveBivalent(p, withBeta, q, bivLimits)
		if cert != nil {
			res.Gamma = w.schedule(idx)
			res.Bivalence = cert
		}
		return cert != nil, err
	})
	switch {
	case err != nil:
		return nil, err
	case res.Bivalence != nil:
		return res, nil
	case full:
		return nil, fmt.Errorf("lowerbound: lemma 13 search budget exhausted after %d prefixes", res.Tried)
	}
	return nil, fmt.Errorf("lowerbound: lemma 13: no γ found within limits (%d prefixes tried)", res.Tried)
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
	// Visited is the number of configurations scanned.
	Visited int
}

// CoveringScan explores reachable configurations of p from the given
// inputs and reports the maximum simultaneous covering found — the
// empirical analogue of the covering structures that Lemma 16 accumulates
// (its X_i ∪ Y_i sets grow to n-2 covered-or-frozen objects).
func CoveringScan(p model.Protocol, inputs []int, limits SearchLimits) (*CoveringScanResult, error) {
	start, err := model.NewConfig(p, inputs)
	if err != nil {
		return nil, err
	}
	all := make([]int, p.NumProcesses())
	for i := range all {
		all[i] = i
	}
	var w walk
	res := &CoveringScanResult{CoverMap: map[int]int{}}
	_, err = w.run(p, start, all, limits, func(idx int, cfg *model.Config) (bool, error) {
		res.Visited++
		if cover := CoveredObjects(p, cfg, all); len(cover) > res.MaxCovered {
			res.MaxCovered = len(cover)
			res.Schedule = w.schedule(idx)
			res.CoverMap = cover
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
