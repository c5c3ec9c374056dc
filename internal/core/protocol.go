package core

import (
	"fmt"
	"strconv"

	"repro/internal/model"
)

// Protocol is Algorithm 1 as a deterministic model.Protocol. One step of
// the model corresponds to one Swap on line 7 of the pseudocode; all
// intervening local computation (lines 8-20 and lines 4-5) happens inside
// Observe, matching the paper's definition of a step as "an operation, a
// response, and a finite amount of local computation".
type Protocol struct {
	params Params
	// abl is params.Ablation with the paper's choices filled in.
	abl   Ablation
	specs []model.ObjectSpec
}

var (
	_ model.Protocol      = (*Protocol)(nil)
	_ model.InputDomainer = (*Protocol)(nil)
)

// New constructs an Algorithm 1 protocol instance.
func New(p Params) (*Protocol, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	init := cellValue(make(model.Vec, p.M), model.Nil{})
	var typ model.ObjectType = model.SwapType{}
	if p.Readable {
		typ = model.ReadableSwapType{}
	}
	specs := make([]model.ObjectSpec, p.NumObjects())
	for i := range specs {
		specs[i] = model.ObjectSpec{Type: typ, Init: init}
	}
	return &Protocol{params: p, abl: p.Ablation.withDefaults(p.N, p.K), specs: specs}, nil
}

// MustNew is New that panics on invalid parameters, for tests and examples.
func MustNew(p Params) *Protocol {
	proto, err := New(p)
	if err != nil {
		panic(err)
	}
	return proto
}

// Name implements model.Protocol. An instance built with an Ablation is
// named by its ablation settings, even when they are the paper's.
func (a *Protocol) Name() string {
	if a.params.Ablation != (Ablation{}) {
		return fmt.Sprintf("ablation(n=%d,k=%d,m=%d,margin=%d,objs=%d,conflict=%t,tie=%s)",
			a.params.N, a.params.K, a.params.M, a.abl.Margin, a.abl.Objects,
			!a.abl.DisableConflictReset, a.abl.TieBreak)
	}
	kind := "swap"
	if a.params.Readable {
		kind = "readable-swap"
	}
	return fmt.Sprintf("algorithm1(n=%d,k=%d,m=%d,%s)", a.params.N, a.params.K, a.params.M, kind)
}

// Params returns the instance parameters.
func (a *Protocol) Params() Params { return a.params }

// Faithful reports whether the instance runs the paper's Algorithm 1:
// no ablation, or one that sets every field to the paper's choice.
func (a *Protocol) Faithful() bool {
	return a.abl == Ablation{}.withDefaults(a.params.N, a.params.K)
}

// NumProcesses implements model.Protocol.
func (a *Protocol) NumProcesses() int { return a.params.N }

// InputDomain implements model.InputDomainer.
func (a *Protocol) InputDomain() int { return a.params.M }

// Objects implements model.Protocol.
func (a *Protocol) Objects() []model.ObjectSpec { return a.specs }

// state is the local state of one Algorithm 1 process. It is immutable:
// transitions return a fresh state, and a fresh U when U changes, never
// writing an existing U in place (SetAgreement relies on that).
type state struct {
	// u is the local lap counter U[0..m-1].
	u model.Vec
	// uVal is u pre-boxed as a model.Value, set whenever u is set, so the
	// exploration hot path (Poised builds ⟨U, pid⟩ for every poised-op
	// query) does not re-box the vector each call. Derived from u; not
	// part of the canonical key.
	uVal model.Value
	// idx is the index (0-based) of the next object to swap in the loop
	// on lines 6-12.
	idx int
	// conflict is the conflict flag of line 5/9.
	conflict bool
	// decided is the decided value, or -1 while undecided.
	decided int
	// laps counts completed laps (diagnostic only, used by the
	// step-census experiments; not consulted by the algorithm). It is
	// deliberately excluded from Key, so the frontier engine's intern
	// arena may canonicalize Key-equal states across executions with
	// different lap counts; read it only from states produced by direct
	// model.Apply runs (as the census harness does), not from
	// engine-visited configurations.
	laps int
}

var (
	_ model.State       = state{}
	_ model.KeyAppender = state{}
)

// Key implements model.State.
func (s state) Key() string { return string(s.AppendKey(nil)) }

// AppendKey implements model.KeyAppender (byte-identical to Key).
func (s state) AppendKey(buf []byte) []byte {
	buf = s.u.AppendKey(buf)
	buf = append(buf, '/')
	buf = strconv.AppendInt(buf, int64(s.idx), 10)
	if s.conflict {
		buf = append(buf, "/c"...)
	}
	buf = append(buf, '/')
	return strconv.AppendInt(buf, int64(s.decided), 10)
}

// Init implements model.Protocol: lines 2-3 of the pseudocode.
func (a *Protocol) Init(pid int, input int) model.State {
	u := make(model.Vec, a.params.M)
	u[input] = 1
	return state{u: u, uVal: u, idx: 0, conflict: false, decided: -1}
}

// Poised implements model.Protocol: an undecided process is always poised
// to Swap ⟨U, pid⟩ into the next object of the current pass (line 7).
func (a *Protocol) Poised(pid int, st model.State) (model.Op, bool) {
	s := st.(state)
	if s.decided >= 0 {
		return model.Op{}, false
	}
	return model.Op{
		Object: s.idx,
		Kind:   model.OpSwap,
		Arg:    model.Pair{First: s.uVal, Second: model.Int(pid)},
	}, true
}

// Observe implements model.Protocol: lines 8-12 for every swap, and lines
// 13-20 when the swap completed the pass (idx reached n-k-1), with the
// instance's ablations applied.
func (a *Protocol) Observe(pid int, st model.State, resp model.Value) model.State {
	return a.observe(pid, st.(state), resp)
}

// observe is Observe on the concrete state: the one copy of lines 5-20,
// which both the model and SetAgreement step.
func (a *Protocol) observe(pid int, s state, resp model.Value) state {
	if s.decided >= 0 {
		panic(fmt.Sprintf("core: Observe on decided process %d", pid))
	}
	respU, respID, err := splitCell(resp)
	if err != nil {
		panic(fmt.Sprintf("core: process %d: %v", pid, err))
	}

	next := s // struct copy; u still shared until modified
	// Lines 8-12: detect a conflicting response and merge lap counters.
	if id, ok := respID.(model.Int); !ok || int(id) != pid || !respU.Equal(s.u) {
		next.conflict = true
		if !s.u.Dominates(respU) {
			next.u = s.u.Clone().MaxInto(respU)
			next.uVal = next.u
		}
	}

	if s.idx+1 < len(a.specs) {
		next.idx = s.idx + 1
		return next
	}

	// End of the loop on lines 6-12: either restart with conflict reset
	// (lines 4-5) or complete a lap (lines 13-20).
	next.idx = 0
	if next.conflict {
		next.conflict = false
		if !a.abl.DisableConflictReset {
			return next
		}
	}
	// Lap completed: choose the leading value (lines 14-15).
	next.laps = s.laps + 1
	u := next.u
	c := u.Max()
	v := u.ArgMax()
	if a.abl.TieBreak == TieBreakHighest { // the largest leader instead
		for j := range u {
			if u[j] == c {
				v = j
			}
		}
	}
	// Line 16: decide if v is at least the margin (the paper's 2 laps)
	// ahead of everything else.
	ahead := true
	for j := range u {
		if j != v && u[v] < u[j]+a.abl.Margin {
			ahead = false
			break
		}
	}
	if ahead {
		next.decided = v
		return next
	}
	// Line 20: increment the leader's component.
	u2 := u.Clone()
	u2[v] = c + 1
	next.u = u2
	next.uVal = u2
	return next
}

// Decision implements model.Protocol.
func (a *Protocol) Decision(st model.State) (int, bool) {
	s := st.(state)
	if s.decided >= 0 {
		return s.decided, true
	}
	return 0, false
}

// LapCounter returns a copy of the local lap counter U of the given state,
// exposed for the invariant tests of Observations 1-4.
func LapCounter(st model.State) model.Vec {
	return st.(state).u.Clone()
}

// Laps returns the number of laps the process has completed in st.
func Laps(st model.State) int { return st.(state).laps }

// PassIndex returns the index of the next object the process will swap.
func PassIndex(st model.State) int { return st.(state).idx }

// ConflictFlag returns the current value of the conflict variable.
func ConflictFlag(st model.State) bool { return st.(state).conflict }

// IsTotal reports whether configuration c is ⟨V, p⟩-total for process p =
// pid: every object holds ⟨V, pid⟩ where V is pid's local lap counter, and
// pid is at the start of a pass. This is the paper's definition preceding
// Observation 2, used by the invariant tests.
func (a *Protocol) IsTotal(c *model.Config, pid int) bool {
	s := c.States[pid].(state)
	if s.decided >= 0 || s.idx != 0 {
		return false
	}
	want := cellValue(s.u, model.Int(pid)).Key()
	for _, v := range c.Objects {
		if v.Key() != want {
			return false
		}
	}
	return true
}
