package lowerbound

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// Lemma9Input is the hypothesis of Lemma 9: an initial configuration C of
// a solo-terminating k-set agreement protocol on swap objects in which the
// processes Q all have input V, and an execution Alpha from C containing
// no steps by Q in which k distinct values different from V are decided.
type Lemma9Input struct {
	// Protocol is the algorithm under test. It must use only swap
	// objects (the lemma's overwriting argument fails for readable
	// objects, as Section 4 discusses).
	Protocol model.Protocol
	// Inputs are the process inputs defining the initial configuration C.
	Inputs []int
	// Alpha is the schedule (pids in order) of the execution α from C.
	Alpha []int
	// Q is the set of quiet processes, none of which appear in Alpha.
	Q []int
	// V is the common input of Q in Inputs; no process may decide V in α.
	V int
	// SoloBound caps each solo execution (default 10 * n * objects).
	SoloBound int
}

// Lemma9Stage records one inductive stage i → i+1 of the construction:
// process q_{i+1} runs solo on the D side until poised outside A_i, the
// run is mirrored on the Cα side, and the newly swapped object B⋆ joins A.
type Lemma9Stage struct {
	// Q is the process q_{i+1} driving this stage.
	Q int
	// TauLen is the number of mirrored steps τ (all on objects already
	// in A_i) before the final step.
	TauLen int
	// NewObject is B⋆, the object outside A_i that q swaps in its final
	// step of this stage.
	NewObject int
	// ValueAfter is value(B⋆, Cαγ_{i+1}) = value(B⋆, Dδ_{i+1}).
	ValueAfter model.Value
}

// Lemma9Result is a machine-checked certificate that the protocol uses at
// least len(Objects) swap objects.
type Lemma9Result struct {
	// Objects is A_{|Q|}: the distinct objects certified, ascending.
	Objects []int
	// Stages documents the induction (one entry per process of Q), the
	// content of Figure 1.
	Stages []Lemma9Stage
	// AlphaDecided is the set of values decided in Cα, for the record.
	AlphaDecided []int
}

// Lemma9 runs the constructive adversary from the proof of Lemma 9. On a
// correct protocol satisfying the hypothesis it returns a certificate with
// exactly |Q| distinct objects; it returns an error if any invariant of
// the construction fails, which on a solo-terminating protocol indicates a
// violation of k-agreement or validity.
func Lemma9(in Lemma9Input) (*Lemma9Result, error) {
	p := in.Protocol
	if !model.SwapOnly(p) {
		return nil, fmt.Errorf("lowerbound: Lemma 9 requires swap objects only; %s uses others", p.Name())
	}
	n := p.NumProcesses()
	nObjects := len(p.Objects())
	if in.SoloBound <= 0 {
		in.SoloBound = 10 * n * (nObjects + 1)
	}
	inQ := map[int]bool{}
	for _, q := range in.Q {
		if inQ[q] {
			return nil, fmt.Errorf("lowerbound: duplicate process %d in Q", q)
		}
		inQ[q] = true
		if in.Inputs[q] != in.V {
			return nil, fmt.Errorf("lowerbound: process %d in Q has input %d, want v = %d", q, in.Inputs[q], in.V)
		}
	}
	for _, pid := range in.Alpha {
		if inQ[pid] {
			return nil, fmt.Errorf("lowerbound: α contains a step by %d ∈ Q", pid)
		}
	}

	// Build Cα by replaying Alpha from C.
	ca, err := model.NewConfig(p, in.Inputs)
	if err != nil {
		return nil, err
	}
	for i, pid := range in.Alpha {
		if _, err := model.Apply(p, ca, pid); err != nil {
			return nil, fmt.Errorf("lowerbound: replaying α step %d: %w", i, err)
		}
	}
	decided := ca.DecidedValues(p)
	for _, d := range decided {
		if d == in.V {
			return nil, fmt.Errorf("lowerbound: α decided v = %d, violating the hypothesis", in.V)
		}
	}

	// Build D: the initial configuration where every process has input v.
	allV := make([]int, n)
	for i := range allV {
		allV[i] = in.V
	}
	d, err := model.NewConfig(p, allV)
	if err != nil {
		return nil, err
	}

	res := &Lemma9Result{AlphaDecided: decided}
	inA := map[int]bool{} // A_i

	for stage, q := range in.Q {
		// Invariant: Cαγ_i ~q Dδ_i — q has taken no steps on either side
		// and had input v in both, so its states must agree.
		if ca.States[q].Key() != d.States[q].Key() {
			return nil, fmt.Errorf("lowerbound: stage %d: C side and D side distinguishable to q%d", stage, q)
		}
		// Invariant: objects of A_i hold equal values on both sides.
		for obj := range inA {
			if !model.ValuesEqual(ca.Value(obj), d.Value(obj)) {
				return nil, fmt.Errorf("lowerbound: stage %d: value(B%d) differs across sides", stage, obj)
			}
		}

		// Run q solo on the D side; mirror each step on the Cα side while
		// q stays inside A_i (this is τ / τ′ of the proof). Stop at the
		// first step s on an object B⋆ ∉ A_i; apply it on both sides.
		tau := 0
		var newObj = -1
		for step := 0; ; step++ {
			if step > in.SoloBound {
				return nil, fmt.Errorf("lowerbound: stage %d: q%d exceeded solo bound %d", stage, q, in.SoloBound)
			}
			op, ok := p.Poised(q, d.States[q])
			if !ok {
				// q decided using only objects in A_i. On the Cα side the
				// mirrored execution is indistinguishable to q, so q
				// decides v there too — contradicting k-agreement, since
				// k values different from v were already decided in Cα.
				v, _ := d.Decided(p, q)
				return nil, fmt.Errorf(
					"lowerbound: stage %d: q%d decided %d inside A_i — protocol violates agreement or hypothesis",
					stage, q, v)
			}
			mirror := inA[op.Object]
			recD, err := model.Apply(p, d, q)
			if err != nil {
				return nil, fmt.Errorf("lowerbound: stage %d D-side: %w", stage, err)
			}
			recC, err := model.Apply(p, ca, q)
			if err != nil {
				return nil, fmt.Errorf("lowerbound: stage %d C-side: %w", stage, err)
			}
			if recD.Op.Key() != recC.Op.Key() {
				return nil, fmt.Errorf("lowerbound: stage %d: q%d applied different ops on the two sides (%v vs %v)",
					stage, q, recD.Op, recC.Op)
			}
			if mirror {
				// Inside A_i responses must match: the object values were
				// equal on both sides by the induction invariant.
				if !model.ValuesEqual(recD.Resp, recC.Resp) {
					return nil, fmt.Errorf("lowerbound: stage %d: responses diverged inside A_i on B%d",
						stage, recD.Op.Object)
				}
				tau++
				continue
			}
			// First access outside A_i: this is step s / s′. Since the
			// operation is a Swap with the same argument on both sides,
			// value(B⋆, Cαγ_{i+1}) = value(B⋆, Dδ_{i+1}) regardless of
			// what the responses were — q's information is overwritten.
			if recD.Op.Trivial() {
				return nil, fmt.Errorf("lowerbound: stage %d: trivial op %v outside A_i (not a swap protocol?)",
					stage, recD.Op)
			}
			newObj = recD.Op.Object
			if !model.ValuesEqual(ca.Value(newObj), d.Value(newObj)) {
				return nil, fmt.Errorf("lowerbound: stage %d: value(B%d) differs after block step", stage, newObj)
			}
			res.Stages = append(res.Stages, Lemma9Stage{
				Q:          q,
				TauLen:     tau,
				NewObject:  newObj,
				ValueAfter: ca.Value(newObj),
			})
			break
		}
		// Note: q's states may now differ across the two sides (it may
		// have received different responses to s and s′); q is never run
		// again, exactly as in the proof.
		inA[newObj] = true
	}

	for obj := range inA {
		res.Objects = append(res.Objects, obj)
	}
	sort.Ints(res.Objects)
	if len(res.Objects) != len(in.Q) {
		return nil, fmt.Errorf("lowerbound: internal error: %d objects for %d quiet processes",
			len(res.Objects), len(in.Q))
	}
	return res, nil
}

// ConsensusCertificate runs the Theorem 10 base case (k = 1) against a
// consensus protocol over every process: process 0 gets input 0, everyone
// else input 1; process 0 runs solo to decision (α), and Lemma 9 with
// Q = {1, ..., n-1} certifies n-1 distinct swap objects.
func ConsensusCertificate(p model.Protocol, soloBound int) (*Lemma9Result, error) {
	if p.NumProcesses() < 2 {
		return nil, fmt.Errorf("lowerbound: consensus certificate needs n >= 2")
	}
	return consensusBase(p, allPids(p), soloBound)
}

// consensusBase is the k = 1 base case of the induction restricted to a
// subset of processes: processes[0] runs solo with input 0 (α), the rest
// of the subset forms Q with input 1, and processes outside the subset
// have input 1 too.
func consensusBase(p model.Protocol, processes []int, soloBound int) (*Lemma9Result, error) {
	inputs := make([]int, p.NumProcesses())
	for i := range inputs {
		inputs[i] = 1
	}
	inputs[processes[0]] = 0
	alpha, err := soloSchedule(p, inputs, processes[0], 0, soloBound)
	if err != nil {
		return nil, fmt.Errorf("lowerbound: base case: %w", err)
	}
	return Lemma9(Lemma9Input{
		Protocol:  p,
		Inputs:    inputs,
		Alpha:     alpha,
		Q:         processes[1:],
		V:         1,
		SoloBound: soloBound,
	})
}
