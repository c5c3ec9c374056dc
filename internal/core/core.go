// Package core implements the paper's primary contribution: Algorithm 1 of
// Ovens (PODC 2022), an obstruction-free, m-valued, k-set agreement
// algorithm for n processes using exactly n-k swap objects. For k = 1 it is
// an n-process consensus algorithm from n-1 swap objects, exactly matching
// the Theorem 10 lower bound.
//
// One transition function, Protocol's Observe (lines 5-20 of the
// pseudocode), has two drivers:
//
//   - the model: Protocol is a deterministic state machine over
//     internal/model objects, driven by schedulers, the model checker, and
//     the lower-bound adversaries (internal/lowerbound). This is the form
//     the paper's proofs quantify over. Its Params.Ablation field weakens
//     one design choice at a time (the line 16 margin, the line 15
//     tie-break, the conflict reset of lines 4-5, the n-k object count)
//     for the ablation experiments of cmd/ablate; the zero value is the
//     paper's algorithm.
//
//   - the runtime: SetAgreement runs real goroutines over sync/atomic
//     objects (each Swap is a genuine hardware exchange) and steps the
//     same transition after every swap, with optional randomized backoff
//     as contention management, since obstruction-freedom alone does not
//     guarantee progress under contention.
//
// The algorithm is a race among input values. Each process keeps a local
// lap counter U[0..m-1]; it repeatedly swaps ⟨U, pid⟩ through all n-k
// objects, merging any higher lap counters it sees. A conflict-free pass
// (every swap returned its own ⟨U, pid⟩) completes a lap; a value that gets
// 2 laps ahead of every other value is decided.
package core

import (
	"fmt"

	"repro/internal/model"
)

// Params configures an Algorithm 1 instance.
type Params struct {
	// N is the number of processes (n > K).
	N int
	// K is the agreement parameter: at most K distinct values decided.
	K int
	// M is the input domain size: inputs are drawn from {0, ..., M-1}.
	// The problem is trivial when M <= K; the constructor allows it
	// (the algorithm still works) but nothing interesting is exercised.
	M int
	// Readable, if true, instantiates the shared objects as readable swap
	// objects instead of plain swap objects. Algorithm 1 never invokes
	// Read, so it runs unchanged; this realizes the Table 1 row
	// "k-set agreement from readable swap objects, upper bound n-k".
	Readable bool
	// Ablation weakens design choices of the algorithm for the ablation
	// experiments. The zero value is the paper's Algorithm 1.
	Ablation Ablation
}

// Ablation selects variants of Algorithm 1 that weaken its design choices
// one at a time, turning the proof's load-bearing ingredients into
// executable experiments. A zero field keeps the paper's choice.
type Ablation struct {
	// Margin is the decision threshold of line 16: decide v when
	// U[v] >= U[j] + Margin for all j != v. The paper's 2 is exactly what
	// Lemma 6's contradiction chains consume; 1 breaks agreement, and
	// larger margins only delay decisions.
	Margin int
	// Objects is the number of swap objects in place of the paper's n-k.
	// Below n-k the consensus instance breaks, which shows Theorem 10's
	// bound from the algorithm's side.
	Objects int
	// DisableConflictReset counts every completed pass as a lap whatever
	// its swaps returned (ablates lines 4-5). That destroys the
	// ⟨V,p⟩-totality behind Observation 2, and with it agreement.
	DisableConflictReset bool
	// TieBreak is line 15's rule among leading values. The proof only
	// uses "a component with maximal value is incremented", so any
	// deterministic rule is safe.
	TieBreak TieBreak
}

// TieBreak selects among multiple leading values on line 15.
type TieBreak int

const (
	// TieBreakLowest is the paper's choice: the smallest leading value.
	TieBreakLowest TieBreak = iota + 1
	// TieBreakHighest picks the largest leading value instead.
	TieBreakHighest
)

// String implements fmt.Stringer.
func (t TieBreak) String() string {
	switch t {
	case TieBreakLowest:
		return "lowest"
	case TieBreakHighest:
		return "highest"
	default:
		return fmt.Sprintf("TieBreak(%d)", int(t))
	}
}

// withDefaults fills the zero fields of a with the paper's choices for an
// n-process k-set agreement instance.
func (a Ablation) withDefaults(n, k int) Ablation {
	if a.Margin == 0 {
		a.Margin = 2
	}
	if a.Objects == 0 {
		a.Objects = n - k
	}
	if a.TieBreak == 0 {
		a.TieBreak = TieBreakLowest
	}
	return a
}

// Validate checks the parameter ranges required by the paper's theorem
// statements (n > k >= 1, m >= 1), and those of an ablated instance
// (m >= 2, plain swap objects, margin >= 1, objects >= 1, a known
// tie-break).
func (p Params) Validate() error {
	if p.K < 1 {
		return fmt.Errorf("core: k = %d, need k >= 1", p.K)
	}
	if p.N <= p.K {
		return fmt.Errorf("core: n = %d, k = %d, need n > k", p.N, p.K)
	}
	if p.M < 1 {
		return fmt.Errorf("core: m = %d, need m >= 1", p.M)
	}
	if p.Ablation == (Ablation{}) {
		return nil
	}
	a := p.Ablation.withDefaults(p.N, p.K)
	switch {
	case p.M < 2:
		return fmt.Errorf("core: ablation needs m >= 2, got %d", p.M)
	case p.Readable:
		return fmt.Errorf("core: ablations run on plain swap objects, not readable ones")
	case a.Margin < 1:
		return fmt.Errorf("core: ablation margin %d < 1", a.Margin)
	case a.Objects < 1:
		return fmt.Errorf("core: ablation objects %d < 1", a.Objects)
	case a.TieBreak != TieBreakLowest && a.TieBreak != TieBreakHighest:
		return fmt.Errorf("core: unknown ablation tie break %d", int(a.TieBreak))
	}
	return nil
}

// NumObjects returns the algorithm's space complexity: n-k, or the
// ablated object count.
func (p Params) NumObjects() int { return p.Ablation.withDefaults(p.N, p.K).Objects }

// SoloStepBound returns the paper's Lemma 8 bound: a solo execution from
// any configuration contains at most 8(n-k) swap operations before the
// running process decides.
func (p Params) SoloStepBound() int { return 8 * (p.N - p.K) }

// cellValue is the value stored in each swap object: the pair
// ⟨lap counter, identifier⟩. The identifier is model.Int(pid) after any
// process has swapped, and model.Nil{} (⊥) initially.
func cellValue(u model.Vec, id model.Value) model.Value {
	return model.Pair{First: u, Second: id}
}

// splitCell decomposes a cell value into its lap counter and identifier.
func splitCell(v model.Value) (model.Vec, model.Value, error) {
	p, ok := v.(model.Pair)
	if !ok {
		return nil, nil, fmt.Errorf("core: object holds %T, want Pair", v)
	}
	u, ok := p.First.(model.Vec)
	if !ok {
		return nil, nil, fmt.Errorf("core: lap counter field holds %T, want Vec", p.First)
	}
	return u, p.Second, nil
}
