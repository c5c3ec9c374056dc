package lowerbound

import (
	"fmt"
	"sort"

	"repro/internal/check"
	"repro/internal/model"
)

// Lemma16Stage records one inductive stage of the Section 5.1 covering
// construction: process p_i runs solo from C_iγ; the largest prefix after
// which Q = {q0, q1} is still bivalent determines C_{i+1}, and p_i's next
// operation classifies its target object into X (frozen: changing its
// value makes Q univalent) or Y (covered: p_i's pending swap would change
// it).
type Lemma16Stage struct {
	// Pid is p_i.
	Pid int
	// GammaLen is the length of the Lemma 13 extension γ applied before
	// p_i's solo run.
	GammaLen int
	// PrefixLen is j: the number of solo steps of p_i kept (the largest
	// bivalence-preserving prefix).
	PrefixLen int
	// Object is B, the object p_i is poised to access in C_{i+1}.
	Object int
	// ToX reports whether B joined X (value-preserving next step) rather
	// than Y (value-changing next step, p_i covers B).
	ToX bool
}

// Lemma16Result is the outcome of the executable Lemma 16 induction.
type Lemma16Result struct {
	// X is the set of frozen objects, ascending.
	X []int
	// Y is the set of covered objects, ascending.
	Y []int
	// S maps each covering process to the object it covers (|S| = |Y|).
	S map[int]int
	// Stages documents the induction.
	Stages []Lemma16Stage
	// Completed reports whether every process of P contributed a stage.
	// When false, the construction stopped early (StopReason explains).
	Completed bool
	// StopReason is empty on completion.
	StopReason string
	// Violation, if non-nil, reports that some p_i decided a value while
	// Q was still bivalent — a direct agreement violation: Q has an
	// execution deciding the other value, so two values are decided in
	// some extension. On a correct consensus protocol this cannot happen
	// (agreement forces univalence once anyone decides), so the Lemma 16
	// machinery doubles as a correctness refuter for bounded-domain
	// protocols.
	Violation *Lemma16Violation
}

// Lemma16Violation pinpoints a decided-while-bivalent event.
type Lemma16Violation struct {
	// Pid is the process that decided.
	Pid int
	// Value is what it decided.
	Value int
}

// Size returns |X ∪ Y|, the number of distinct objects accumulated — the
// quantity Lemma 16 grows to n-2.
func (r *Lemma16Result) Size() int { return len(r.X) + len(r.Y) }

// Lemma16Run executes a budget-bounded rendition of the Lemma 16 induction
// against a concrete protocol with a finite configuration space (e.g. a
// bounded-domain readable-swap protocol, the Section 5 setting).
//
// Q = {q0, q1} are processes 0 and 1 with inputs 0 and 1; P is everyone
// else. Stage i:
//
//  1. find a Q-only extension γ after which Q is bivalent and the block
//     swap by the current covering set S preserves that (Lemma 13);
//  2. run p_i solo from C_iγ, keeping the longest prefix δ_j such that Q
//     remains bivalent in C_iγδ_j (δ_j is itself a (Q ∪ P_i)-only
//     execution indistinguishable from itself to p_i, realizing the α_j
//     of Lemma 14(a) directly);
//  3. classify p_i's poised operation d on object B: if d would not
//     change B's value, B joins X; otherwise p_i covers B and joins S,
//     with B joining Y.
//
// The paper's proof additionally shows B ∉ X_i ∪ Y_i always holds; on a
// concrete protocol with a small object count the sets can saturate, in
// which case the run reports an early stop rather than an error — the
// interesting assertion for experiments is that each completed stage
// accumulates a distinct object, mirroring |X_i ∪ Y_i| = i.
//
// One approximation is load-bearing: the paper's Lemma 14 index j ranges
// over executions indistinguishable to p_i, and univalence there is with
// respect to (Q ∪ P_{i+1})-only extensions; this driver uses Q-only
// valency, which is certifiable by exhaustive exploration. Under Q-only
// valency a value-preserving step by p_i (Read or identity Swap) can never
// change Q's valency — it changes neither Q's states nor any object — so
// completed stages classify to Y (covered) in practice; the X branch is
// kept for structural fidelity and defensively exercised by tests.
//
// Q's bivalence is certified by a class search over Q-only executions
// (check.SearchClasses) whose classes are the values Q decides: two met
// classes prove bivalence, and only a complete search proves its absence.
// limits.MaxConfigs bounds that search, and a search the budget cuts
// short of two classes stops the run (soundness over progress).
func Lemma16Run(p model.Protocol, limits SearchLimits) (*Lemma16Result, error) {
	n := p.NumProcesses()
	if n < 3 {
		return nil, fmt.Errorf("lowerbound: lemma 16 needs n >= 3 (two Q processes plus P), got %d", n)
	}
	for i, spec := range p.Objects() {
		if spec.Type.DomainSize() == 0 {
			return nil, fmt.Errorf("lowerbound: lemma 16: object %d has unbounded domain; need a finite space", i)
		}
	}
	limits = limits.withDefaults()
	valencyOpts := limits.engineOptions()
	valencyOpts.Limits.MaxDepth = 0       // the budget alone bounds a valency search
	valencyOpts.Engine.Provenance = false // and it needs no witness schedules

	// Initial configuration: q0 input 0, q1 input 1, P input split.
	inputs := make([]int, n)
	inputs[1] = 1
	for i := 2; i < n; i++ {
		inputs[i] = i % 2
	}
	cfg, err := model.NewConfig(p, inputs)
	if err != nil {
		return nil, err
	}
	q := []int{0, 1}
	res := &Lemma16Result{S: map[int]int{}}
	inXY := map[int]bool{}

	bivalent := func(c *model.Config) (bool, error) {
		found, stats, err := check.SearchClasses(p, c, q, valencyOpts, 2, decidedBy(q))
		switch {
		case err != nil:
			return false, fmt.Errorf("lowerbound: lemma 16: %w", err)
		case len(found) >= 2:
			return true, nil
		case stats.Complete:
			return false, nil
		default:
			return false, fmt.Errorf("lowerbound: lemma 16: valency unknown within budget")
		}
	}

	if ok, err := bivalent(cfg); err != nil {
		return nil, err
	} else if !ok {
		return nil, fmt.Errorf("lowerbound: lemma 16: initial split configuration not bivalent (Observation 12 fails)")
	}

	for pi := 2; pi < n; pi++ {
		// Step 1: Lemma 13 γ for the current covering set.
		covering := make([]int, 0, len(res.S))
		for pid := range res.S {
			covering = append(covering, pid)
		}
		sort.Ints(covering)
		gammaLen := 0
		if len(covering) > 0 {
			l13, err := Lemma13Gamma(p, cfg, q, covering, limits, limits)
			if err != nil {
				res.Completed = false
				res.StopReason = fmt.Sprintf("stage p%d: lemma 13: %v", pi, err)
				return res, nil
			}
			for _, pid := range l13.Gamma {
				if _, err := model.Apply(p, cfg, pid); err != nil {
					return nil, err
				}
				gammaLen++
			}
		}

		// Step 2: longest bivalence-preserving solo prefix of p_i.
		prefix := 0
		for {
			if _, decided := cfg.Decided(p, pi); decided {
				break
			}
			trial := cfg.Clone()
			if _, err := model.Apply(p, trial, pi); err != nil {
				return nil, err
			}
			ok, err := bivalent(trial)
			if err != nil {
				res.StopReason = fmt.Sprintf("stage p%d: %v", pi, err)
				return res, nil
			}
			if !ok {
				break
			}
			cfg = trial
			prefix++
			if prefix > limits.MaxDepth && limits.MaxDepth > 0 {
				res.StopReason = fmt.Sprintf("stage p%d: solo prefix exceeded depth %d", pi, limits.MaxDepth)
				return res, nil
			}
		}

		// Step 3: classify p_i's poised operation.
		op, poised := p.Poised(pi, cfg.States[pi])
		if !poised {
			// p_i decided in a configuration where Q is certified
			// bivalent: agreement is violated in some extension.
			v, _ := cfg.Decided(p, pi)
			res.Violation = &Lemma16Violation{Pid: pi, Value: v}
			res.StopReason = fmt.Sprintf("stage p%d: decided %d while Q still bivalent (agreement violation)", pi, v)
			return res, nil
		}
		if inXY[op.Object] {
			res.StopReason = fmt.Sprintf("stage p%d: object B%d already accumulated (sets saturated)", pi, op.Object)
			return res, nil
		}
		// Does d change B's value when applied here?
		next, _, err := p.Objects()[op.Object].Type.Apply(cfg.Value(op.Object), op)
		if err != nil {
			return nil, err
		}
		toX := model.ValuesEqual(cfg.Value(op.Object), next)
		stage := Lemma16Stage{Pid: pi, GammaLen: gammaLen, PrefixLen: prefix, Object: op.Object, ToX: toX}
		res.Stages = append(res.Stages, stage)
		inXY[op.Object] = true
		if toX {
			res.X = append(res.X, op.Object)
		} else {
			res.Y = append(res.Y, op.Object)
			res.S[pi] = op.Object
		}
	}
	sort.Ints(res.X)
	sort.Ints(res.Y)
	res.Completed = true
	return res, nil
}
