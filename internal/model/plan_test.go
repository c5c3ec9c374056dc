package model_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/model"
)

// Tests of the stepper's two-phase step: Plan a transition now, Install it
// later. An expansion plans every successor of a chunk of nodes — hundreds
// of lookups, any of which may add a transition or grow the memo — before
// it installs the few the visited set admits, so a planned Step must not
// be a view into the memo.

// counterProto is two processes that swap their own step count into one
// object for ever: a state's memo entry meets as many object values as the
// test cares to show it, and there are as many states as it cares to make.
type counterProto struct{}

func (counterProto) Name() string      { return "counter-proto" }
func (counterProto) NumProcesses() int { return 2 }
func (counterProto) Objects() []model.ObjectSpec {
	return []model.ObjectSpec{{Type: model.SwapType{}, Init: model.Int(0)}}
}
func (counterProto) Init(pid, input int) model.State { return model.Int(0) }
func (counterProto) Poised(pid int, st model.State) (model.Op, bool) {
	return model.Op{Object: 0, Kind: model.OpSwap, Arg: st.(model.Int)}, true
}
func (counterProto) Observe(pid int, st model.State, resp model.Value) model.State {
	return st.(model.Int) + 1
}
func (counterProto) Decision(st model.State) (int, bool) { return 0, false }

// config materialises the configuration refs stands for in st's
// dictionary, with its slot hashes.
func config(st *model.Stepper, shape *model.Config, refs []uint32) (*model.Config, []uint64) {
	c := &model.Config{Objects: make([]model.Value, len(shape.Objects)), States: make([]model.State, len(shape.States))}
	st.Arena().Materialise(refs, c)
	hashes := make([]uint64, len(refs))
	for i, ref := range refs {
		hashes[i] = st.Arena().SlotHash(i, ref)
	}
	return c, hashes
}

func shapeOf(c *model.Config) (*model.Config, []uint64) {
	return &model.Config{Objects: make([]model.Value, len(c.Objects)), States: make([]model.State, len(c.States))},
		make([]uint64, len(c.Objects)+len(c.States))
}

// TestPlannedStepSurvivesMemoGrowth: a Step planned from one (state,
// value) pair still installs the right successor after 1,000 further
// transitions have been added to the same memo entry (the same state met
// on other values: the entry's transition slice and index are reallocated
// several times) and 1,000 further entries to the memo table (other
// states: the table is rehashed twice).
func TestPlannedStepSurvivesMemoGrowth(t *testing.T) {
	st := model.NewStepper(counterProto{})
	at := func(value, state int) []uint32 {
		refs := make([]uint32, st.Slots())
		st.Arena().Intern(&model.Config{
			Objects: []model.Value{model.Int(value)},
			States:  []model.State{model.Int(state), model.Int(0)},
		}, refs)
		return refs
	}
	first := at(-1, 7)
	shape, _ := config(st, &model.Config{Objects: make([]model.Value, 1), States: make([]model.State, 2)}, first)
	firstFP := shape.SlotFingerprint()
	var step model.Step
	if ok, err := st.Plan(first, 0, &step); !ok || err != nil {
		t.Fatalf("Plan: ok=%t err=%v", ok, err)
	}
	var scratch model.Step
	for i := 0; i < 1000; i++ {
		for _, refs := range [][]uint32{at(i, 7), at(-1, 100+i)} {
			if ok, err := st.Plan(refs, 0, &scratch); !ok || err != nil {
				t.Fatalf("Plan %d: ok=%t err=%v", i, ok, err)
			}
		}
	}

	dstRefs := make([]uint32, len(first))
	st.Install(first, 0, &step, dstRefs)
	dst, dstH := config(st, shape, dstRefs)
	fresh := model.NewStepperExact(counterProto{})
	ref := &model.Config{
		Objects: []model.Value{model.Int(-1)},
		States:  []model.State{model.Int(7), model.Int(0)},
	}
	refH := make([]uint64, fresh.Slots())
	refFP := fresh.InitSlots(ref, refH)
	want, wantH := shapeOf(ref)
	wantFP, ok, err := fresh.ApplyCOW(ref, refFP, refH, 0, want, wantH)
	if !ok || err != nil {
		t.Fatalf("fresh ApplyCOW: ok=%t err=%v", ok, err)
	}
	if got := step.Fingerprint(firstFP); got != wantFP || !reflect.DeepEqual(dstH, wantH) ||
		string(dst.AppendEncoding(nil)) != string(want.AppendEncoding(nil)) {
		t.Errorf("the step planned before the memo grew installs %q (fp %#x, hashes %x); a fresh stepper steps to %q (fp %#x, hashes %x)",
			dst.AppendEncoding(nil), got, dstH, want.AppendEncoding(nil), wantFP, wantH)
	}
	if enc := st.Arena().AppendEncoding(nil, dstRefs); string(enc) != string(want.AppendEncoding(nil)) {
		t.Errorf("the installed refs encode %q, the successor encodes %q", enc, want.AppendEncoding(nil))
	}
}

// TestPlanThenInstallMatchesApply: on random walks, planning the step of
// every process first and installing one of them afterwards yields the
// successor a memo-free step through the protocol yields — slots, slot
// hashes, fingerprint and key — with cold and with warm memos; and the
// memoising stepper's ApplyCOW, which resolves the parent's slots by hash,
// yields it too.
func TestPlanThenInstallMatchesApply(t *testing.T) {
	toybit, err := baseline.NewToyBitRace(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		p      model.Protocol
		inputs []int
	}{
		{"algorithm1", core.MustNew(core.Params{N: 4, K: 2, M: 3}), []int{0, 1, 2, 0}},
		{"toybit", toybit, []int{0, 1, 0, 1}},
	} {
		st := model.NewStepper(tc.p)
		ref := model.NewStepperExact(tc.p) // its ApplyCOW asks the protocol every time
		rng := rand.New(rand.NewSource(24))
		n := tc.p.NumProcesses()
		start := model.MustNewConfig(tc.p, tc.inputs)
		for walk := 0; walk < 20; walk++ {
			cur := make([]uint32, st.Slots())
			curFP := st.Arena().Intern(start, cur)
			for depth := 0; depth < 60; depth++ {
				steps := make([]model.Step, n)
				var live []int
				for pid := range steps {
					ok, err := st.Plan(cur, pid, &steps[pid])
					if err != nil {
						t.Fatal(err)
					}
					if ok {
						live = append(live, pid)
					}
				}
				if len(live) == 0 {
					break
				}
				pid := live[rng.Intn(len(live))]
				next := make([]uint32, len(cur))
				st.Install(cur, pid, &steps[pid], next)
				fp := steps[pid].Fingerprint(curFP)
				dst, dstH := config(st, start, next)

				parent, parentH := config(st, start, cur)
				want, wantH := shapeOf(start)
				wantFP, ok, err := ref.ApplyCOW(parent, curFP, parentH, pid, want, wantH)
				if !ok || err != nil {
					t.Fatalf("%s: reference step of a live pid: ok=%t err=%v", tc.name, ok, err)
				}
				wantEnc := string(want.AppendEncoding(nil))
				if fp != wantFP || !reflect.DeepEqual(dstH, wantH) || string(dst.AppendEncoding(nil)) != wantEnc || dst.Key() != want.Key() {
					t.Fatalf("%s walk %d depth %d p%d: installed %q (fp %#x), the protocol steps to %q (fp %#x)",
						tc.name, walk, depth, pid, dst.AppendEncoding(nil), fp, wantEnc, wantFP)
				}
				if enc := st.Arena().AppendEncoding(nil, next); string(enc) != wantEnc {
					t.Fatalf("%s walk %d depth %d p%d: the installed refs encode %q, the successor encodes %q", tc.name, walk, depth, pid, enc, wantEnc)
				}
				cow, cowH := shapeOf(start)
				if cowFP, ok, err := st.ApplyCOW(parent, curFP, parentH, pid, cow, cowH); !ok || err != nil || cowFP != wantFP ||
					!reflect.DeepEqual(cowH, wantH) || cow.Key() != want.Key() {
					t.Fatalf("%s walk %d depth %d p%d: ApplyCOW gives %q (fp %#x, %t, %v), the protocol steps to %q (fp %#x)",
						tc.name, walk, depth, pid, cow.Key(), cowFP, ok, err, want.Key(), wantFP)
				}
				cur, curFP = next, fp
			}
		}
	}
}
